package intinfer

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qsim"
	"repro/internal/tensor"
)

// demoGeom is the demo CNNs' input geometry (demoplan's CNN recipe).
var demoGeom = models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}

// demoCNNs are the three conv architectures at the demo geometry with
// batch norm folded: plain (VGG), residual with identity and projection
// shortcuts (ResNet, the served model) and grouped/depthwise
// (MobileNet). They are left untrained: random weights exercise the
// kernels as hard, and the checks below compare codes exactly.
func demoCNNs() []struct {
	name string
	m    *models.ImageModel
} {
	out := []struct {
		name string
		m    *models.ImageModel
	}{
		{"vgg", models.NewVGGStyle(demoGeom, 101)},
		{"resnet", models.NewResNetStyle(demoGeom, 102)},
		{"mobilenet", models.NewMobileNetStyle(demoGeom, 103)},
	}
	for _, c := range out {
		qsim.FoldBatchNorm(c.m)
	}
	return out
}

// assertChunkCodes runs images as one batched chunk and checks every
// column's final codes against the per-image lane's, code for code.
func assertChunkCodes(tb testing.TB, p *Plan, images [][]float32, label string) {
	tb.Helper()
	s := p.scratch(nil)
	chunk, err := p.chunkCodes(images, s)
	if err != nil {
		tb.Fatalf("%s: chunk of %d: %v", label, len(images), err)
	}
	b := len(images)
	for j, img := range images {
		one, err := p.run(img, s)
		if err != nil {
			tb.Fatalf("%s: image %d: %v", label, j, err)
		}
		if len(one.data)*b != len(chunk.data) {
			tb.Fatalf("%s: chunk of %d has %d codes, want %d", label, b, len(chunk.data), len(one.data)*b)
		}
		for r, v := range one.data {
			if got := chunk.data[r*b+j]; got != v {
				tb.Fatalf("%s: chunk of %d, image %d, code %d: batched %d, per-image %d", label, b, j, r, got, v)
			}
		}
		s.put(one.data)
	}
	s.put(chunk.data)
	p.released(s)
	p.arena.Put(s)
}

// TestBatchedConvMatchesClassify pins the batched conv lane against
// single-image Classify: the demo conv architectures, every rung of the
// demo ladder, batch sizes around one, the chunk width and two chunks,
// through every batch entry point. Chunks that fit one call are also
// checked code for code against the per-image lane.
func TestBatchedConvMatchesClassify(t *testing.T) {
	ds := datasets.ImageClasses(146, demoGeom.Classes, demoGeom.InC, demoGeom.InH, demoGeom.InW, 104)
	images := ds.Images[16:]
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, maxChunk - 1, maxChunk, maxChunk + 1, 130}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range demoCNNs() {
		fam, err := BuildFamily(c.m, Options{Calibration: ds.Images[:16], GroupSize: 8,
			Budgets: []int{4, 8, 12}})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range fam.Budgets() {
			p, _ := fam.Plan(k)
			if p.chunk < 2 {
				t.Fatalf("%s k=%d: not admitted to the batched lane", c.name, k)
			}
			want := make([]int, len(images))
			for i, img := range images {
				if want[i], err = p.Classify(img); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range sizes {
				batch := images[:b]
				if b > 1 && b <= p.chunk {
					assertChunkCodes(t, p, batch, c.name)
				}
				got := map[string][]int{}
				if got["InferBatch"], err = p.InferBatch(batch); err != nil {
					t.Fatal(err)
				}
				if got["InferBatchContext/background"], err = p.InferBatchContext(context.Background(), batch, 2); err != nil {
					t.Fatal(err)
				}
				if got["InferBatchContext/serial"], err = p.InferBatchContext(ctx, batch, 1); err != nil {
					t.Fatal(err)
				}
				if got["InferBatchContext/parallel"], err = p.InferBatchContext(ctx, batch, 0); err != nil {
					t.Fatal(err)
				}
				for entry, preds := range got {
					for i := range batch {
						if preds[i] != want[i] {
							t.Fatalf("%s k=%d b=%d %s image %d: %d, Classify %d",
								c.name, k, b, entry, i, preds[i], want[i])
						}
					}
				}
			}
		}
	}
}

// unfoldResidualReLUs undoes the residual half of fuseActivations: each
// residual whose add clamp absorbed a ReLU gets the plain [-127, 127]
// window back and a standalone ReLU step after it. It returns the new
// chain and how many ReLUs it re-inserted.
func unfoldResidualReLUs(steps []step) ([]step, int) {
	var out []step
	n := 0
	for _, st := range steps {
		if st.kind == kindResidual {
			var k int
			st.body, k = unfoldResidualReLUs(st.body)
			n += k
		}
		if st.kind != kindResidual || st.lo != 0 {
			out = append(out, st)
			continue
		}
		relu := step{kind: kindReLU, name: st.name + ".relu"}
		if st.hi < 127 {
			relu.capCode = st.hi
		}
		st.lo, st.hi = -127, 127
		out = append(out, st, relu)
		n++
	}
	return out, n
}

// TestResidualReLUFoldBitExact: a plan whose post-residual ReLUs were
// folded into the add's clamp computes the same logits, per image and
// per chunk, as the same plan with each ReLU re-inserted as its own
// step — for the ResNet's plain ReLUs and for a capped ReLU. Calibration
// puts a ReLU6's cap at or above code 127 whenever the capped output
// feeds the next layer directly, so the capped case forces a cap of 60
// onto the folded clamp to reach the lowered-top path.
func TestResidualReLUFoldBitExact(t *testing.T) {
	fused := fuseActivations([]step{{kind: kindResidual, lo: -127, hi: 127}, {kind: kindReLU, capCode: 60}})
	if len(fused) != 1 || fused[0].lo != 0 || fused[0].hi != 60 {
		t.Fatalf("residual + ReLU cap 60 fused to %d steps, clamp [%d, %d]; want 1 step, [0, 60]",
			len(fused), fused[0].lo, fused[0].hi)
	}

	rng := rand.New(rand.NewSource(105))
	conv := func(label string, inC, outC int) *nn.Conv2D {
		return nn.NewConv2D(label, tensor.ConvGeom{InC: inC, InH: 8, InW: 8,
			KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: outC}, true, rng)
	}
	capped := &models.ImageModel{Name: "capped", InC: 3, InH: 8, InW: 8, Classes: 4,
		Net: nn.NewSequential("capped",
			conv("stem", 3, 8), nn.NewReLU("stemrelu"),
			nn.NewResidual("res", nn.NewSequential("res.body",
				conv("res.conv1", 8, 8), nn.NewReLU("res.relu1"), conv("res.conv2", 8, 8)), nil),
			nn.NewReLU6("res.relu6"),
			nn.NewGlobalAvgPool2D("gap"), nn.NewLinear("fc", 8, 4, rng))}
	resnet := models.NewResNetStyle(demoGeom, 106)
	qsim.FoldBatchNorm(resnet)
	ds := datasets.ImageClasses(24, 4, 3, 8, 8, 107)
	for _, c := range []struct {
		name  string
		m     *models.ImageModel
		folds int
	}{{"resnet", resnet, 6}, {"relu6", capped, 1}} {
		opts := Options{Calibration: ds.Images[:16]}
		folded, err := Build(c.m, opts)
		if err != nil {
			t.Fatal(err)
		}
		unfolded, err := Build(c.m, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range folded.steps {
			if folded.steps[i].kind == kindReLU {
				t.Fatalf("%s: standalone ReLU step %s left in the folded plan", c.name, folded.steps[i].name)
			}
		}
		if c.name == "relu6" {
			folded.steps[1].hi = 60
		}
		var n int
		unfolded.steps, n = unfoldResidualReLUs(append([]step(nil), folded.steps...))
		if n != c.folds {
			t.Fatalf("%s: %d residual ReLUs folded, want %d", c.name, n, c.folds)
		}
		images := ds.Images[16:]
		assertSameLogits(t, folded, unfolded, images, c.name)
		for _, p := range []*Plan{folded, unfolded} {
			assertChunkCodes(t, p, images, c.name)
		}
		s := folded.scratch(nil)
		a, err := folded.chunkCodes(images, s)
		if err != nil {
			t.Fatal(err)
		}
		u := unfolded.scratch(nil)
		b, err := unfolded.chunkCodes(images, u)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.data {
			if a.data[i] != b.data[i] {
				t.Fatalf("%s: chunk code %d: folded %d, unfolded %d", c.name, i, a.data[i], b.data[i])
			}
		}
		folded.failRelease(s)
		unfolded.failRelease(u)
	}
}

// buildDemoResNet builds the served architecture and asserts it runs
// the batched lane.
func buildDemoResNet(tb testing.TB, opts Options) (*Plan, [][]float32) {
	tb.Helper()
	m := models.NewResNetStyle(demoGeom, 108)
	qsim.FoldBatchNorm(m)
	ds := datasets.ImageClasses(96, demoGeom.Classes, demoGeom.InC, demoGeom.InH, demoGeom.InW, 109)
	opts.Calibration = ds.Images[:16]
	p, err := Build(m, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if p.chunk == 0 {
		tb.Fatal("ResNet plan was not admitted to the batched lane")
	}
	return p, ds.Images[16:]
}

// TestBatchedConvDispatchCounters: a chunk dispatches each conv's GEMM
// once and the head's linear8 GEMM once, whatever its width, and never
// the per-image GEMV; a one-image batch takes the per-image lane; and
// the parallel driver splits a served-size batch into one chunk per
// worker, down to two images each.
func TestBatchedConvDispatchCounters(t *testing.T) {
	reg := obs.New()
	p, images := buildDemoResNet(t, Options{Obs: reg})
	convs := int64(len(convSteps(p.steps)))
	paths := []string{"gemm8", "linear8", "gemv_f64", "direct"}
	check := func(b, workers int, want map[string]int64) {
		t.Helper()
		before := map[string]int64{}
		for _, path := range paths {
			before[path] = reg.Counter("trq_intinfer_dispatch_total", "path", path).Value()
		}
		if _, err := p.InferBatchContext(context.Background(), images[:b], workers); err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if got := reg.Counter("trq_intinfer_dispatch_total", "path", path).Value() - before[path]; got != want[path] {
				t.Errorf("b=%d workers=%d: %s dispatch = %d, want %d", b, workers, path, got, want[path])
			}
		}
	}
	check(8, 1, map[string]int64{"gemm8": convs, "linear8": 1})
	check(maxChunk+2, 1, map[string]int64{"gemm8": 2 * convs, "linear8": 2})
	check(1, 1, map[string]int64{"gemm8": convs, "gemv_f64": 1})
	check(8, 2, map[string]int64{"gemm8": 2 * convs, "linear8": 2}) // two chunks of 4
	check(3, 2, map[string]int64{"gemm8": convs, "linear8": 1})     // too small to split
}

// TestBatchedConvSteadyStateAllocs: after arena warmup a CNN InferBatch
// allocates nothing but the predictions slice it returns, observed or
// not; and the served call — a cancellable context, workers 0, batches
// of 1, 4 and 8 — stays within six objects (the context watch, the
// flag and the predictions). A goroutine closure that captured preds or
// the flag would move them to the heap and show here. AllocsPerRun
// pins GOMAXPROCS to 1, so workers 0 runs one span; workers 2 at b = 4
// and 8 takes the multi-span branch a 2-core server runs, held to 8
// objects cancellable and 4 under context.Background() (one shared
// span state, one goroutine per span, the predictions).
func TestBatchedConvSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fakes misses under the race detector")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, reg := range []*obs.Registry{nil, obs.New()} {
		p, images := buildDemoResNet(t, Options{Obs: reg})
		batch := images[:8]
		if _, err := p.InferBatch(batch); err != nil { // warm the arena
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() {
			if _, err := p.InferBatch(batch); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("observed=%v: CNN InferBatch allocates %.2f objects per call, want ≤ 1", reg != nil, n)
		}
		for _, b := range []int{1, 4, 8} {
			if n := testing.AllocsPerRun(50, func() {
				if _, err := p.InferBatchContext(ctx, images[:b], 0); err != nil {
					t.Fatal(err)
				}
			}); n > 6 {
				t.Errorf("observed=%v b=%d: served InferBatchContext allocates %.2f objects per call, want ≤ 6",
					reg != nil, b, n)
			}
		}
		for _, b := range []int{4, 8} {
			for _, tc := range []struct {
				name string
				ctx  context.Context
				max  float64
			}{{"cancellable", ctx, 8}, {"background", context.Background(), 4}} {
				if n := testing.AllocsPerRun(50, func() {
					if _, err := p.InferBatchContext(tc.ctx, images[:b], 2); err != nil {
						t.Fatal(err)
					}
				}); n > tc.max {
					t.Errorf("observed=%v b=%d %s: two-span InferBatchContext allocates %.2f objects per call, want ≤ %g",
						reg != nil, b, tc.name, n, tc.max)
				}
			}
		}
	}
}

// TestBatchedConvDeadline: a deadline that expires while a long CNN
// batch runs on the batched lane stops it, serially and in parallel,
// and the repaired arena serves the next call.
func TestBatchedConvDeadline(t *testing.T) {
	p, images := buildDemoResNet(t, Options{})
	batch := bigBatch(images, 30000) // about a second of chunks
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		_, err := p.InferBatchContext(ctx, batch, workers)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: CNN batch under a 5ms deadline returned %v, want context.DeadlineExceeded", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("workers=%d: cancellation took %v", workers, elapsed)
		}
	}
	if _, err := p.InferBatch(images[:8]); err != nil {
		t.Fatalf("InferBatch after a cancelled batch failed: %v", err)
	}
}

// TestBatchedConvChunkObservesStop: a chunk armed with a set stop flag
// returns errStopped at its first step boundary, before any kernel runs.
func TestBatchedConvChunkObservesStop(t *testing.T) {
	reg := obs.New()
	p, images := buildDemoResNet(t, Options{Obs: reg})
	gemm8 := reg.Counter("trq_intinfer_dispatch_total", "path", "gemm8")
	var stop atomic.Bool
	stop.Store(true)
	s := p.scratch(&stop)
	preds := make([]int, 8)
	if err := p.runChunk(images[:8], preds, s); !errors.Is(err, errStopped) {
		t.Fatalf("chunk under a set stop flag returned %v, want errStopped", err)
	}
	p.failRelease(s)
	if n := gemm8.Value(); n != 0 {
		t.Errorf("stopped chunk dispatched %d conv GEMMs, want 0", n)
	}
}
