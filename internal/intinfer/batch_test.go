package intinfer

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/kernels"
	"repro/internal/kernels/autotune"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qsim"
	"repro/internal/tensor"
)

// buildLinear8 builds an MLP plan and asserts it was admitted to the
// batched packed-linear lane — if admission silently fails, every test
// below would pass vacuously against the wrong code path.
func buildLinear8(t *testing.T, opts Options) (*Plan, *datasets.ImageDataset) {
	t.Helper()
	m, train, test := trainedMLP(t)
	if opts.Calibration == nil {
		opts.Calibration = train.Images[:32]
	}
	plan, err := Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.chunk == 0 {
		t.Fatal("MLP plan was not admitted to the batched linear lane")
	}
	for i := range plan.steps {
		if plan.steps[i].kind == kindLinear && plan.steps[i].pack8lin == nil {
			t.Fatalf("linear step %s has no packed form", plan.steps[i].name)
		}
	}
	return plan, test
}

// TestLinear8BatchMatchesPerImage pins the lane's core contract: for
// every batch size — below, at, above and straddling the chunk width —
// the batched predictions equal per-image Classify, exactly.
func TestLinear8BatchMatchesPerImage(t *testing.T) {
	plan, test := buildLinear8(t, Options{})
	for _, b := range []int{1, 7, maxChunk, maxChunk + 1, 2*maxChunk + 2} {
		images := test.Images[:b]
		want := make([]int, b)
		for i, img := range images {
			cls, err := plan.Classify(img)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = cls
		}
		got, err := plan.InferBatch(images)
		if err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("b=%d image %d: batched %d, per-image %d", b, i, got[i], want[i])
			}
		}
		for _, workers := range []int{1, 3} {
			par, err := plan.InferBatchContext(context.Background(), images, workers)
			if err != nil {
				t.Fatalf("b=%d workers=%d: %v", b, workers, err)
			}
			for i := range want {
				if par[i] != want[i] {
					t.Fatalf("b=%d workers=%d image %d: parallel %d, per-image %d",
						b, workers, i, par[i], want[i])
				}
			}
		}
	}
}

// TestLinear8TileInvariance forces every candidate-shaped tile onto the
// plan's linear steps and re-runs the batch: the predictions must not
// move. This is the plan-level face of the kernel property that blocking
// never changes arithmetic — the autotuner may pick any tile.
func TestLinear8TileInvariance(t *testing.T) {
	plan, test := buildLinear8(t, Options{})
	images := test.Images[:maxChunk+3]
	want, err := plan.InferBatch(images)
	if err != nil {
		t.Fatal(err)
	}
	tiles := []kernels.Tile{
		{}, {MR: 4}, {MR: 8}, {MR: 16},
		{MR: 8, NR: 16, KC: 2}, {MR: 8, NR: 64, KC: 128}, {MR: 32, NR: 256, KC: 512},
	}
	for _, tile := range tiles {
		for i := range plan.steps {
			plan.steps[i].tile = tile
		}
		got, err := plan.InferBatch(images)
		if err != nil {
			t.Fatalf("tile %v: %v", tile, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tile %v image %d: got %d, want %d", tile, i, got[i], want[i])
			}
		}
	}
}

// TestLinear8DispatchCounters: the batched lane must attribute its work
// to the linear8 dispatch path and count every image, and a one-image
// chunk must take the float64 GEMV instead.
func TestLinear8DispatchCounters(t *testing.T) {
	reg := obs.New()
	plan, test := buildLinear8(t, Options{Obs: reg})
	linear8C := reg.Counter("trq_intinfer_dispatch_total", "path", "linear8")
	gemvC := reg.Counter("trq_intinfer_dispatch_total", "path", "gemv_f64")
	linears := int64(0)
	for i := range plan.steps {
		if plan.steps[i].kind == kindLinear {
			linears++
		}
	}
	check := func(b int, wantLinear8, wantGemv int64) {
		t.Helper()
		l8, gv := linear8C.Value(), gemvC.Value()
		if _, err := plan.InferBatch(test.Images[:b]); err != nil {
			t.Fatal(err)
		}
		if got := linear8C.Value() - l8; got != wantLinear8 {
			t.Errorf("b=%d: linear8 dispatch = %d, want %d", b, got, wantLinear8)
		}
		if got := gemvC.Value() - gv; got != wantGemv {
			t.Errorf("b=%d: gemv_f64 dispatch = %d, want %d", b, got, wantGemv)
		}
	}
	check(maxChunk+5, 2*linears, 0)     // two batched chunks
	check(maxChunk+1, linears, linears) // one chunk plus a one-image remainder
	want := int64(2*maxChunk + 6)
	if got := reg.Counter("trq_intinfer_batch_images_total").Value(); got != want {
		t.Errorf("batch images = %d, want %d", got, want)
	}
}

// TestLinear8SteadyStateAllocs pins the lane's allocation budget: after
// arena warmup a batch costs exactly one heap object, the predictions
// slice handed to the caller — with metrics enabled, since an earlier
// regression (pprof label maps allocating per step) only fired on
// observed plans.
func TestLinear8SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fakes misses under the race detector")
	}
	plan, test := buildLinear8(t, Options{Obs: obs.New()})
	images := test.Images[:maxChunk]
	if _, err := plan.InferBatch(images); err != nil { // warm the arena
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := plan.InferBatch(images); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("batched InferBatch allocates %.2f objects per call, want ≤ 1", n)
	}
	// offline_mlp's call: a context that cannot be cancelled, one
	// worker. It runs the same program, so it keeps the one allocation;
	// a goroutine closure that captured preds or the (nil) stop flag
	// would move them to the heap here.
	if n := testing.AllocsPerRun(50, func() {
		if _, err := plan.InferBatchContext(context.Background(), images, 1); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("InferBatchContext(Background, %d images, 1) allocates %.2f objects per call, want ≤ 1",
			len(images), n)
	}
}

// TestObservedClassifySteadyStateAllocs pins the fix for the
// observed-plan allocation regression: with a registry wired, Classify
// must stay allocation-free for both the MLP and the conv pipeline.
// pprof label plumbing once allocated on every step of every observed
// inference (~1441 objects per conv batch op).
func TestObservedClassifySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fakes misses under the race detector")
	}
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:32], Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	img := test.Images[0]
	if _, err := plan.Classify(img); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := plan.Classify(img); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("observed MLP Classify allocates %.2f objects per call, want 0", n)
	}

	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	cm := models.NewVGGStyle(g, 45)
	qsim.FoldBatchNorm(cm)
	ds := datasets.ImageClasses(16, g.Classes, g.InC, g.InH, g.InW, 46)
	cplan, err := Build(cm, Options{Calibration: ds.Images, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cplan.Classify(ds.Images[0]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := cplan.Classify(ds.Images[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("observed conv Classify allocates %.2f objects per call, want 0", n)
	}
}

// TestLinear8BadImageIndex: validation errors out of the batched lane
// must attribute the absolute batch index, on both drivers.
func TestLinear8BadImageIndex(t *testing.T) {
	plan, test := buildLinear8(t, Options{})
	batch := make([][]float32, 150)
	for i := range batch {
		batch[i] = test.Images[i%len(test.Images)]
	}
	batch[130] = make([]float32, 3)
	if _, err := plan.InferBatch(batch); err == nil || !strings.Contains(err.Error(), "image 130") {
		t.Errorf("serial error %v does not name image 130", err)
	}
	if _, err := plan.InferBatchContext(context.Background(), batch, 3); err == nil || !strings.Contains(err.Error(), "image 130") {
		t.Errorf("parallel error %v does not name image 130", err)
	}
}

// TestAutotuneWarmCacheDeterminism is the CI determinism check: two
// cold plan builds against the same warm cache must land the same tile
// picks and the same predictions, with the second build spending zero
// microbenchmark time — for the batched MLP lane and for conv steps,
// whose picks are keyed apart and tune MR alone.
func TestAutotuneWarmCacheDeterminism(t *testing.T) {
	t.Setenv("TRQ_AUTOTUNE_CACHE", filepath.Join(t.TempDir(), "autotune.json"))
	t.Setenv("TRQ_AUTOTUNE", "")
	autotune.Reset()
	t.Cleanup(autotune.Reset)
	reg := obs.New()
	autotune.SetObs(reg)
	defer autotune.SetObs(nil)
	measureNs := reg.Counter("trq_kernels_autotune_measure_ns_total")

	m, train, test := trainedMLP(t)
	build := func() *Plan {
		plan, err := Build(m, Options{Calibration: train.Images[:32]})
		if err != nil {
			t.Fatal(err)
		}
		if plan.chunk == 0 {
			t.Fatal("plan not admitted to the batched linear lane")
		}
		return plan
	}
	first := build()
	autotune.Reset() // fresh "process", warm disk
	warmNs := measureNs.Value()
	second := build()
	if got := measureNs.Value(); got != warmNs {
		t.Errorf("warm-cache build spent %d ns measuring, want 0", got-warmNs)
	}
	for i := range first.steps {
		if first.steps[i].tile != second.steps[i].tile {
			t.Errorf("step %s: cold pick %v, warm pick %v",
				first.steps[i].name, first.steps[i].tile, second.steps[i].tile)
		}
	}
	images := test.Images[:maxChunk]
	a, err := first.InferBatch(images)
	if err != nil {
		t.Fatal(err)
	}
	b, err := second.InferBatch(images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("image %d: cold-build plan %d, warm-build plan %d", i, a[i], b[i])
		}
	}

	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	cm := models.NewResNetStyle(g, 43)
	qsim.FoldBatchNorm(cm)
	cal := datasets.ImageClasses(16, g.Classes, g.InC, g.InH, g.InW, 44).Images
	cnn := func() []*step {
		plan, err := Build(cm, Options{Calibration: cal})
		if err != nil {
			t.Fatal(err)
		}
		return convSteps(plan.steps)
	}
	cold := cnn()
	autotune.Reset()
	warmNs = measureNs.Value()
	warm := cnn()
	if got := measureNs.Value(); got != warmNs {
		t.Errorf("warm-cache CNN build spent %d ns measuring, want 0", got-warmNs)
	}
	for i, st := range cold {
		if st.tile != warm[i].tile {
			t.Errorf("conv %s: cold pick %v, warm pick %v", st.name, st.tile, warm[i].tile)
		}
		if st.tile.NR != 0 || st.tile.KC != 0 {
			t.Errorf("conv %s: pick %v tunes packing knobs", st.name, st.tile)
		}
	}
}

// TestOddInputLengthMatchesClassify runs plans whose input length, 143
// (1×11×13), is not a multiple of the quantizer's eight-pixel step, so
// every image ends in the scalar tail: a linear-first plan, whose chunk
// takes the quantizer's offset-u8 matrix as its B operand, and a
// conv-first plan, whose chunk widens it. Every batch size from 2 to 64
// through InferBatch must equal Classify image by image, and each chunk
// must equal the per-image lane code for code. A few pixels are NaN,
// ±Inf or exact half-steps of the input scale.
func TestOddInputLengthMatchesClassify(t *testing.T) {
	const inC, inH, inW, classes = 1, 11, 13, 5
	rng := rand.New(rand.NewSource(24))
	linear := &models.ImageModel{Name: "odd-mlp", InC: inC, InH: inH, InW: inW, Classes: classes,
		Net: nn.NewSequential("odd-mlp", nn.NewFlatten("flatten"),
			nn.NewLinear("fc1", inC*inH*inW, 24, rng), nn.NewReLU("relu1"),
			nn.NewLinear("fc2", 24, classes, rng))}
	conv := &models.ImageModel{Name: "odd-cnn", InC: inC, InH: inH, InW: inW, Classes: classes,
		Net: nn.NewSequential("odd-cnn",
			nn.NewConv2D("conv", tensor.ConvGeom{InC: inC, InH: inH, InW: inW,
				KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8}, true, rng),
			nn.NewReLU("relu1"), nn.NewGlobalAvgPool2D("gap"),
			nn.NewLinear("fc", 8, classes, rng))}
	ds := datasets.ImageClasses(96, classes, inC, inH, inW, 25)
	for _, tc := range []struct {
		m           *models.ImageModel
		linearFirst bool
	}{{linear, true}, {conv, false}} {
		p, err := Build(tc.m, Options{Calibration: ds.Images[:16]})
		if err != nil {
			t.Fatal(err)
		}
		if p.chunk < 64 || p.linearFirst() != tc.linearFirst {
			t.Fatalf("%s: chunk %d, linear first %v; want the batched lane at 64, linear first %v",
				tc.m.Name, p.chunk, p.linearFirst(), tc.linearFirst)
		}
		images := make([][]float32, 64)
		for i := range images {
			images[i] = append([]float32(nil), ds.Images[16+i]...)
		}
		s := float64(p.inScale)
		special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			float32(2.5 * s), float32(-3.5 * s), float32(0.5 * s)}
		for i, img := range images {
			img[len(img)-1-i%8] = special[i%len(special)]
		}
		want := make([]int, len(images))
		for i, img := range images {
			if want[i], err = p.Classify(img); err != nil {
				t.Fatal(err)
			}
		}
		for b := 2; b <= len(images); b++ {
			got, err := p.InferBatch(images[:b])
			if err != nil {
				t.Fatalf("%s b=%d: %v", tc.m.Name, b, err)
			}
			for i, g := range got {
				if g != want[i] {
					t.Fatalf("%s b=%d image %d: batched %d, Classify %d", tc.m.Name, b, i, g, want[i])
				}
			}
			assertChunkCodes(t, p, images[:b], tc.m.Name)
		}
	}
}
