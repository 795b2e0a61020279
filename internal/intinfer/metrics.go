package intinfer

import (
	"context"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// Step latency histogram geometry: 10µs bins over [0, 500µs). Steps of
// the evaluation models run in the nanosecond-to-microsecond range;
// anything slower (cold caches, huge layers) lands in the +Inf bucket,
// which is still visible in the exposition.
const (
	stepLatencyMax  = 500e-6
	stepLatencyBins = 50
)

// planMetrics is the set of pre-resolved instrument handles a Plan
// updates during inference. The zero value is the disabled set: every
// handle is nil (all obs instruments are nil-safe no-ops) and enabled
// is false, which additionally gates the pieces that cost more than a
// branch — time.Now calls and pprof label plumbing. Handles are
// resolved once at Build, never on the inference path.
type planMetrics struct {
	enabled bool

	// labels additionally enables pprof label plumbing in execStep and
	// the labelled classify wrapper. Label maps allocate per tagged
	// region, which breaks the zero-steady-state-alloc contract, so this
	// is opt-in (Options.ProfileLabels) even when a registry is wired.
	labels bool

	infers      *obs.Counter // inferences started
	inferErrs   *obs.Counter // inferences that returned an error
	batchImages *obs.Counter // images submitted through the batch paths

	// stepLatency[i] is the latency histogram of top-level step i,
	// labelled with the step name.
	stepLatency []*obs.Histogram

	// Kernel dispatch: which lowering actually ran for a weight layer.
	dispatchGemm8   *obs.Counter
	dispatchGemvF64 *obs.Counter
	dispatchDirect  *obs.Counter
	dispatchLinear8 *obs.Counter

	// Arena behaviour. scratchNew counts pool misses (cold arenas built
	// from scratch); scratchGet/scratchPut count acquisitions and
	// releases — with the error paths repaired, put always catches up
	// with get, and new stays flat under steady load. freeBuffers is
	// the activation free-list length observed at each release: equal
	// to the plan's buffer count when the arena was fully repaired.
	scratchNew  *obs.Counter
	scratchGet  *obs.Counter
	scratchPut  *obs.Counter
	scratchLive *obs.Gauge
	freeBuffers *obs.Gauge
}

// initMetrics resolves the plan's instrument handles against r and
// publishes the static arena geometry. A nil registry leaves the zero
// (disabled) planMetrics in place.
func (p *Plan) initMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Help("trq_intinfer_infer_total", "single-image inferences started")
	r.Help("trq_intinfer_infer_errors_total", "inferences that returned an error")
	r.Help("trq_intinfer_batch_images_total", "images submitted through InferBatch/InferBatchParallel")
	r.Help("trq_intinfer_step_latency_seconds", "per-step execution latency")
	r.Help("trq_intinfer_dispatch_total", "weight-layer kernel dispatch decisions")
	r.Help("trq_intinfer_arena_scratch_total", "scratch arena events (get/put/new)")
	r.Help("trq_intinfer_arena_scratch_live", "scratch arenas currently checked out")
	r.Help("trq_intinfer_arena_free_buffers", "activation free-list length at last release")
	r.Help("trq_intinfer_plan_activation_peak_elems", "largest activation any step produces")
	r.Help("trq_intinfer_plan_arena_buffers", "activation buffers one inference needs")

	pm := &p.pm
	pm.enabled = true
	pm.infers = r.Counter("trq_intinfer_infer_total")
	pm.inferErrs = r.Counter("trq_intinfer_infer_errors_total")
	pm.batchImages = r.Counter("trq_intinfer_batch_images_total")
	pm.stepLatency = make([]*obs.Histogram, len(p.steps))
	for i := range p.steps {
		pm.stepLatency[i] = r.Histogram("trq_intinfer_step_latency_seconds",
			0, stepLatencyMax, stepLatencyBins, "step", p.steps[i].name)
	}
	pm.dispatchGemm8 = r.Counter("trq_intinfer_dispatch_total", "path", "gemm8")
	pm.dispatchGemvF64 = r.Counter("trq_intinfer_dispatch_total", "path", "gemv_f64")
	pm.dispatchDirect = r.Counter("trq_intinfer_dispatch_total", "path", "direct")
	pm.dispatchLinear8 = r.Counter("trq_intinfer_dispatch_total", "path", "linear8")
	pm.scratchNew = r.Counter("trq_intinfer_arena_scratch_total", "event", "new")
	pm.scratchGet = r.Counter("trq_intinfer_arena_scratch_total", "event", "get")
	pm.scratchPut = r.Counter("trq_intinfer_arena_scratch_total", "event", "put")
	pm.scratchLive = r.Gauge("trq_intinfer_arena_scratch_live")
	pm.freeBuffers = r.Gauge("trq_intinfer_arena_free_buffers")
	r.Gauge("trq_intinfer_plan_activation_peak_elems").Set(int64(p.maxAct))
	r.Gauge("trq_intinfer_plan_arena_buffers").Set(int64(p.bufCount))
}

// execStep runs top-level step i, and — when observability is on —
// times it into the step's latency histogram and tags the execution
// with a runtime/pprof "layer" label so CPU profile samples attribute
// to plan steps.
func (p *Plan) execStep(i int, in activation, s *scratch) (activation, error) {
	if !p.pm.enabled {
		return p.exec(p.steps[i], in, s)
	}
	start := time.Now()
	var out activation
	var err error
	if p.pm.labels {
		pprof.Do(context.Background(), pprof.Labels("layer", p.steps[i].name),
			func(context.Context) { out, err = p.exec(p.steps[i], in, s) })
	} else {
		out, err = p.exec(p.steps[i], in, s)
	}
	p.pm.stepLatency[i].Observe(time.Since(start).Seconds())
	return out, err
}

// released records a scratch release; callers invoke it immediately
// before handing the scratch back with p.arena.Put. Success paths keep
// the Put inline so the poolarena analyzer pairs it with the
// acquisition; error paths go through failRelease, which the analyzer
// recognizes via its //trlint:arena-release directive.
func (p *Plan) released(s *scratch) {
	p.pm.scratchPut.Inc()
	p.pm.scratchLive.Add(-1)
	p.pm.freeBuffers.Set(int64(len(s.free)))
}
