package intinfer

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/term"
)

// TestAccuracyLabelMismatch pins the bugfix for the old behaviour where
// Accuracy indexed labels by prediction position and panicked (or read
// garbage) when the two slices disagreed in length. All three shapes of
// mismatch must surface a descriptive error instead.
func TestAccuracyLabelMismatch(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		images [][]float32
		labels []int
	}{
		{"short labels", test.Images[:8], test.Labels[:5]},
		{"long labels", test.Images[:5], test.Labels[:8]},
		{"empty labels", test.Images[:5], nil},
		{"empty set", nil, nil},
	}
	for _, tc := range cases {
		acc, err := plan.Accuracy(tc.images, tc.labels)
		if err == nil {
			t.Errorf("%s: accepted (returned %.3f), want error", tc.name, acc)
			continue
		}
		if !strings.Contains(err.Error(), "intinfer") {
			t.Errorf("%s: error %q lacks package context", tc.name, err)
		}
	}

	// The matched case still works.
	if _, err := plan.Accuracy(test.Images[:8], test.Labels[:8]); err != nil {
		t.Errorf("matched slices rejected: %v", err)
	}
}

// TestErrorPathRecyclesScratch pins the arena-leak bugfix: error returns
// from classify (and Infer/InferBatch, which share the repair) must reset
// and recycle the scratch instead of dropping it. Observed two ways —
// repeated failing inferences stop allocating once the arena is warm,
// and the obs arena counters show put catching up with get while the
// pool-miss counter stays flat.
func TestErrorPathRecyclesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fakes misses under the race detector")
	}
	m, train, test := trainedMLP(t)
	reg := obs.New()
	plan, err := Build(m, Options{Calibration: train.Images[:16], IntraWorkers: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	// testing.AllocsPerRun pins GOMAXPROCS to 1, so pin it before the
	// warm-up too: a scratch the warm-up put into another P's private
	// pool slot is unreachable once only P0 runs, and the next Get would
	// read as a pool miss even though the error path recycled it.
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	var stop atomic.Bool
	stop.Store(true) // every classify fails mid-chain with errStopped
	if _, err := plan.classify(test.Images[0], 1, &stop); !errors.Is(err, errStopped) {
		t.Fatalf("armed stop flag returned %v, want errStopped", err)
	}

	newC := reg.Counter("trq_intinfer_arena_scratch_total", "event", "new")
	getC := reg.Counter("trq_intinfer_arena_scratch_total", "event", "get")
	putC := reg.Counter("trq_intinfer_arena_scratch_total", "event", "put")
	errC := reg.Counter("trq_intinfer_infer_errors_total")
	coldNews := newC.Value()
	errsBefore := errC.Value()

	const rounds = 100
	if n := testing.AllocsPerRun(rounds, func() {
		if _, err := plan.classify(test.Images[0], 1, &stop); !errors.Is(err, errStopped) {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("failing classify allocates %.2f objects per call; the scratch is being dropped", n)
	}

	if news := newC.Value(); news != coldNews {
		t.Errorf("pool misses grew from %d to %d across failing inferences; arena not recycled",
			coldNews, news)
	}
	if got, put := getC.Value(), putC.Value(); got != put {
		t.Errorf("scratch get/put imbalance after errors: %d gets vs %d puts", got, put)
	}
	if live := reg.Gauge("trq_intinfer_arena_scratch_live").Value(); live != 0 {
		t.Errorf("%d scratch arenas still checked out after all calls returned", live)
	}
	if errs := errC.Value(); errs <= errsBefore {
		t.Errorf("error counter did not advance (%d -> %d)", errsBefore, errs)
	}

	// A recycled scratch from the error path must serve a clean inference.
	stop.Store(false)
	want, err := plan.Classify(test.Images[0])
	if err != nil {
		t.Fatalf("classify after error storm failed: %v", err)
	}
	clean, err := Build(m, Options{Calibration: train.Images[:16], IntraWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := clean.Classify(test.Images[0]); err != nil || got != want {
		t.Errorf("recycled-scratch prediction %d (err %v) differs from fresh plan %d", want, err, got)
	}
}

// TestObsSingleInferPopulates is the tentpole acceptance check: one
// Infer through an instrumented plan must land per-step latency samples,
// kernel-dispatch counts, and term/TR counters in both the Prometheus
// exposition and the JSON snapshot.
func TestObsSingleInferPopulates(t *testing.T) {
	reg := obs.New()
	kernels.SetObs(reg)
	term.SetObs(reg)
	core.SetObs(reg)
	defer func() {
		kernels.SetObs(nil)
		term.SetObs(nil)
		core.SetObs(nil)
	}()

	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16],
		GroupSize: 8, GroupBudget: 12, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.Infer(test.Images[0]); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["trq_intinfer_infer_total"] != 1 {
		t.Errorf("infer counter = %d, want 1", snap.Counters["trq_intinfer_infer_total"])
	}
	dispatched := int64(0)
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "trq_intinfer_dispatch_total") {
			dispatched += v
		}
	}
	if dispatched == 0 {
		t.Error("no kernel dispatch recorded for a full inference")
	}
	if snap.Counters[`trq_core_reveal_groups_total`] == 0 {
		t.Error("TR build left the reveal-group counter at zero")
	}
	hits := snap.Counters[`trq_term_encode_cache_total{outcome="hit"}`]
	misses := snap.Counters[`trq_term_encode_cache_total{outcome="miss"}`]
	if hits+misses == 0 {
		t.Error("encode-cache counters untouched by a TR build")
	}
	// A single-image inference times every step.
	wantSteps := len(plan.steps)
	stepSamples := int64(0)
	for k, h := range snap.Histograms {
		if strings.HasPrefix(k, "trq_intinfer_step_latency_seconds") {
			stepSamples += h.Count
		}
	}
	if stepSamples < int64(wantSteps) {
		t.Errorf("step latency histograms hold %d samples, want >= %d (one per timed step)",
			stepSamples, wantSteps)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"trq_intinfer_infer_total 1",
		"trq_intinfer_step_latency_seconds_count",
		"trq_intinfer_dispatch_total{path=",
		"trq_core_reveal_groups_total",
		"trq_term_encode_cache_total{outcome=",
		"# TYPE trq_intinfer_step_latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
}

// TestDisabledPlanHasNoRegistry pins the zero-cost contract's shape: a
// plan built without Options.Obs keeps the zero planMetrics (enabled
// false, all-nil handles), so the hot path pays only nil checks.
func TestDisabledPlanHasNoRegistry(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	if plan.pm.enabled {
		t.Fatal("plan built without a registry has metrics enabled")
	}
	if plan.pm.infers != nil || plan.pm.stepLatency != nil {
		t.Fatal("plan built without a registry holds instrument handles")
	}
	if _, err := plan.Classify(test.Images[0]); err != nil {
		t.Fatal(err)
	}
}
