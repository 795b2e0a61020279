package intinfer

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qsim"
	"repro/internal/tensor"
)

// forceDirect rewrites a plan's steps to the golden fallback paths: conv
// and linear steps lose their packed panels and float64 copies, so exec
// takes execConvDirect / execLinearDirect with 64-bit accumulation.
func forceDirect(p *Plan) {
	p.chunk = 0
	var walk func(steps []step)
	walk = func(steps []step) {
		for i := range steps {
			st := &steps[i]
			st.wf64 = nil
			st.bf64 = nil
			st.pack8 = nil
			st.pack8lin = nil
			if st.kind == kindResidual {
				walk(st.body)
				if st.proj != nil {
					walk(st.proj)
				}
			}
		}
	}
	walk(p.steps)
}

// buildPair builds the same model twice and downgrades one copy to the
// direct reference paths. Build is deterministic, so any divergence
// between the two plans' outputs is a kernel-path bug.
func buildPair(t testing.TB, m *models.ImageModel, opts Options) (fast, direct *Plan) {
	t.Helper()
	fast, err := Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err = Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	forceDirect(direct)
	return fast, direct
}

func assertSameLogits(t testing.TB, fast, direct *Plan, images [][]float32, label string) {
	t.Helper()
	for i, img := range images {
		fl, fc, err := fast.Infer(img)
		if err != nil {
			t.Fatalf("%s: fast path image %d: %v", label, i, err)
		}
		dl, dc, err := direct.Infer(img)
		if err != nil {
			t.Fatalf("%s: direct path image %d: %v", label, i, err)
		}
		if fc != dc {
			t.Fatalf("%s: image %d: fast class %d, direct class %d", label, i, fc, dc)
		}
		for j := range fl {
			if fl[j] != dl[j] {
				t.Fatalf("%s: image %d logit %d: fast %v, direct %v", label, i, j, fl[j], dl[j])
			}
		}
	}
}

// TestGemmPathMatchesDirectSweep is the golden equivalence sweep: conv
// architectures covering plain, strided, pooled, residual, grouped
// (depthwise) and 1x1 convolutions at randomized geometries, each
// checked bit-exact between the packed lowering (gather + int8 GEMM with
// the requant fused) and the direct 7-deep reference loop. The
// comparison is non-vacuous: every model must have packed convs. The
// models are deliberately left untrained — random weights exercise the
// kernels just as hard, and only exact equality is asserted.
func TestGemmPathMatchesDirectSweep(t *testing.T) {
	type family struct {
		name  string
		build func(models.CNNGeom, int64) *models.ImageModel
	}
	families := []family{
		{"vgg", models.NewVGGStyle},
		{"resnet", models.NewResNetStyle},
		{"mobilenet", models.NewMobileNetStyle},
	}
	geoms := []models.CNNGeom{
		{InC: 1, InH: 8, InW: 8, Classes: 3},
		{InC: 3, InH: 8, InW: 8, Classes: 4},
		{InC: 2, InH: 9, InW: 7, Classes: 5}, // non-square, odd sizes
	}
	seed := int64(31)
	for _, fam := range families {
		for _, g := range geoms {
			seed++
			m := fam.build(g, seed)
			qsim.FoldBatchNorm(m)
			ds := datasets.ImageClasses(24, g.Classes, g.InC, g.InH, g.InW, seed+100)
			fast, direct := buildPair(t, m, Options{Calibration: ds.Images[:16]})
			if countPack8(fast.steps) == 0 {
				t.Fatalf("%s %+v: no conv step was admitted to the packed path", fam.name, g)
			}
			assertSameLogits(t, fast, direct, ds.Images[16:24], fam.name)
		}
	}
}

// countPack8 reports how many conv steps carry packed panels.
func countPack8(steps []step) int {
	n := 0
	for i := range steps {
		st := &steps[i]
		if st.pack8 != nil {
			n++
		}
		if st.kind == kindResidual {
			n += countPack8(st.body)
			if st.proj != nil {
				n += countPack8(st.proj)
			}
		}
	}
	return n
}

// TestOversizedConvInputStaysUnpacked pins the gather stage's bound at
// plan level: a conv whose padded input exceeds kernels.MaxGatherSrc
// gets no packed panels and no gather and dispatches the direct loop,
// while a smaller conv of the same plan packs, and the plan still
// matches the direct reference bit for bit. Such a plan stays off the
// batched lane, so its head keeps no packed panels either.
func TestOversizedConvInputStaysUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	conv := func(label string, inC, h, w, outC int) *nn.Conv2D {
		return nn.NewConv2D(label, tensor.ConvGeom{InC: inC, InH: h, InW: w,
			KH: 3, KW: 3, Stride: 2, Pad: 1, OutC: outC}, true, rng)
	}
	const side = 256 // 1×256×256 pads to 1×258×258, past MaxGatherSrc
	if (side+2)*(side+2) <= kernels.MaxGatherSrc {
		t.Fatalf("%d-element padded input fits the gather stage", (side+2)*(side+2))
	}
	m := &models.ImageModel{Name: "wide", InC: 1, InH: side, InW: side, Classes: 3,
		Net: nn.NewSequential("wide",
			conv("big", 1, side, side, 2), nn.NewReLU("relu1"),
			conv("small", 2, side/2, side/2, 4), nn.NewReLU("relu2"),
			nn.NewGlobalAvgPool2D("gap"), nn.NewLinear("fc", 4, 3, rng))}
	ds := datasets.ImageClasses(6, 3, 1, side, side, 84)
	fast, direct := buildPair(t, m, Options{Calibration: ds.Images[:4]})
	seen := 0
	for i := range fast.steps {
		st := &fast.steps[i]
		switch st.name {
		case "big":
			seen++
			if st.pack8 != nil || st.gather != nil {
				t.Fatalf("oversized conv: packed=%v table=%v, want neither",
					st.pack8 != nil, st.gather != nil)
			}
		case "small":
			seen++
			if st.pack8 == nil || st.gather == nil {
				t.Fatal("conv within the gather stage was not packed")
			}
		case "fc":
			seen++
			if st.pack8lin != nil {
				t.Fatal("head of a plan off the batched lane kept packed panels")
			}
		}
	}
	if seen != 3 {
		t.Fatalf("found %d of the 3 weight steps", seen)
	}
	if fast.chunk != 0 {
		t.Fatalf("plan with an unpacked conv admitted to the batched lane (chunk %d)", fast.chunk)
	}
	assertSameLogits(t, fast, direct, ds.Images[4:], "oversized")

	// One image through an observed build: the oversized conv runs the
	// direct loop, the small one the packed GEMM, the head the GEMV.
	reg := obs.New()
	observed, err := Build(m, Options{Calibration: ds.Images[:4], Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := observed.Infer(ds.Images[4]); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int64{"direct": 1, "gemm8": 1, "gemv_f64": 1} {
		if got := reg.Counter("trq_intinfer_dispatch_total", "path", path).Value(); got != want {
			t.Errorf("dispatch %s = %d, want %d", path, got, want)
		}
	}
}

// TestLinearPlanMatchesDirect pins the per-image lane of an all-linear
// plan, every linear on the float64 GEMV, against the direct int64
// reference, logit for logit.
func TestLinearPlanMatchesDirect(t *testing.T) {
	m, train, test := trainedMLP(t)
	fast, direct := buildPair(t, m, Options{Calibration: train.Images[:32]})
	for i := range fast.steps {
		if st := &fast.steps[i]; st.kind == kindLinear && st.wf64 == nil {
			t.Fatalf("linear step %s has no float64 form", st.name)
		}
	}
	assertSameLogits(t, fast, direct, test.Images[:32], "f64-linear")
}

// TestClassifySteadyStateAllocs pins the zero-allocation contract: after
// arena warmup, Classify must not touch the heap — for the MLP's
// float64 GEMV lane and for the packed conv (gather + GEMM) pipeline
// alike.
func TestClassifySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fakes misses under the race detector")
	}
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:32]})
	if err != nil {
		t.Fatal(err)
	}
	img := test.Images[0]
	if _, err := plan.Classify(img); err != nil { // warm the arena
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := plan.Classify(img); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MLP Classify allocates %.2f objects per call, want 0", n)
	}

	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	cm := models.NewVGGStyle(g, 41)
	qsim.FoldBatchNorm(cm)
	ds := datasets.ImageClasses(16, g.Classes, g.InC, g.InH, g.InW, 42)
	cplan, err := Build(cm, Options{Calibration: ds.Images})
	if err != nil {
		t.Fatal(err)
	}
	if countPack8(cplan.steps) == 0 {
		t.Fatal("conv plan has no packed (gather) step")
	}
	if _, err := cplan.Classify(ds.Images[0]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := cplan.Classify(ds.Images[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("conv Classify allocates %.2f objects per call, want 0", n)
	}
}

// TestParallelPathsUnderContention runs batches split across span
// workers, so the race detector (tier-2) sees the driver's concurrent
// surface, and the results still match the serial path exactly.
func TestParallelPathsUnderContention(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:32]})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plan.InferBatch(test.Images[:48])
	if err != nil {
		t.Fatal(err)
	}
	par, err := plan.InferBatchContext(context.Background(), test.Images[:48], 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if par[i] != serial[i] {
			t.Fatalf("image %d: parallel %d, serial %d", i, par[i], serial[i])
		}
	}

	// A conv model runs its spans through the gather and packed GEMM.
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	cm := models.NewVGGStyle(g, 43)
	qsim.FoldBatchNorm(cm)
	ds := datasets.ImageClasses(32, g.Classes, g.InC, g.InH, g.InW, 44)
	cplan, err := Build(cm, Options{Calibration: ds.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cplan.InferBatch(ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cplan.InferBatchContext(context.Background(), ds.Images, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs {
		if cp[i] != cs[i] {
			t.Fatalf("conv image %d: parallel %d, serial %d", i, cp[i], cs[i])
		}
	}
}

// TestParallelErrorStopsWorkers checks the first-error cancellation: a
// bad image early in a long batch must surface the error (and flip the
// shared stop flag the workers poll).
func TestParallelErrorStopsWorkers(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float32, 0, 120)
	batch = append(batch, make([]float32, 3)) // wrong size: fails immediately
	for len(batch) < 120 {
		batch = append(batch, test.Images[len(batch)%len(test.Images)])
	}
	if _, err := plan.InferBatchContext(context.Background(), batch, 4); err == nil {
		t.Fatal("bad image did not surface an error")
	}
}
