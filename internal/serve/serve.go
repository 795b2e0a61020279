// Package serve is the micro-batching inference server over a compiled
// intinfer.Plan. Requests are admitted into a bounded queue (full queue
// = load shed, never unbounded memory), a pool of Workers replicated
// batch workers consumes it — each worker collects micro-batches of up
// to MaxBatch images, or whatever has arrived when MaxDelay lapses —
// and dispatches each batch through the plan's context-aware batch
// path, so the amortized term-encoding and arena reuse the batch
// runtime was built for also pays off at serving time. Workers are
// fully independent replicas: each owns its carry list and delay timer
// and draws its scratch from the plan's per-P-sharded sync.Pool, so W
// workers keep W int8 GEMM lanes busy on a GOMAXPROCS ≥ W box without
// sharing any mutable state beyond the admission queue itself.
// Per-request deadlines are enforced at every stage: a request that
// expires while queued is answered 504 without ever occupying a batch
// slot, and a dispatched batch runs under the latest live deadline so a
// stalled layer cannot hold its worker hostage. Drain stops admission,
// flushes the queue through the workers, joins them all, and then shuts
// the HTTP listener down gracefully.
//
// With a Config.Family instead of a single Plan the server becomes the
// paper's run-time accuracy dial: each request carries an effective TR
// group budget (client hint, clamped to the ladder; the family max by
// default), batches group same-budget requests so every dispatch still
// runs one homogeneous plan, and a degrade-before-shed policy steps new
// admissions down to the next-lower rung once queue depth crosses
// DegradeWatermark — trading accuracy for admission instead of
// answering 429 — with hysteresis so the dial doesn't flap. With more
// than one worker the depth the watermark compares against is a
// cross-worker quantity: requests admitted but not yet dispatched
// (queued, parked on a carry list, or inside a collect window) plus
// the images currently executing inside every worker's in-flight
// batch. Counting in-flight work matters precisely when it used to be
// invisible — W busy workers are up to W·MaxBatch images of committed
// latency the queue alone no longer shows.
//
// Mixed budgets also shape the batching window. A worker holds a batch
// open for MaxDelay only while no other budget's request waits on it:
// once one is parked on its carry list, the batch takes the same-budget
// requests already queued and dispatches, because the parked request is
// that worker's next job and a longer wait would only idle the worker.
// Single-budget traffic never parks, so its window is unchanged.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/intinfer"
	"repro/internal/obs"
)

// Defaults for the scheduler knobs; Config fields left zero get these.
const (
	DefaultMaxBatch    = 8
	DefaultMaxDelay    = 2 * time.Millisecond
	DefaultQueueCap    = 64
	DefaultDeadline    = 50 * time.Millisecond
	DefaultMaxDeadline = 5 * time.Second
	DefaultRetryAfter  = 1 * time.Second
)

// Sentinel errors the admission path returns; the HTTP layer maps them
// to 429 (shed), 503 (draining) and 400 (budget hint without a ladder).
var (
	ErrQueueFull = errors.New("serve: admission queue full")
	ErrDraining  = errors.New("serve: server is draining")
	ErrNoBudgets = errors.New("serve: server has no budget ladder")
)

// Sentinel errors of the hot-swap path; the HTTP layer maps them to 501
// (no reloader configured) and 409 (a reload is already running).
var (
	ErrNoReload   = errors.New("serve: no reload source configured")
	ErrReloadBusy = errors.New("serve: a reload is already in progress")
)

// Config wires a Server. Exactly one of Plan or Family is required;
// everything else defaults.
type Config struct {
	// Plan is the compiled model every request classifies through.
	// Ignored when Family is set.
	Plan *intinfer.Plan
	// Family, when non-nil, serves a multi-budget plan ladder instead of
	// a single plan: requests carry an effective budget, batches stay
	// budget-homogeneous, and the degradation policy below applies.
	Family *intinfer.Family
	// DefaultBudget is the rung requests without a hint run at, snapped
	// onto the ladder (0 = the family max, i.e. full quality).
	DefaultBudget int
	// DegradeWatermark is the queue depth at or above which new
	// admissions step down one rung instead of keeping their budget
	// (0 = QueueCap/2; above QueueCap the policy never engages). The
	// queue still sheds at QueueCap, so the band between watermark and
	// cap is where degradation absorbs load that shedding used to.
	DegradeWatermark int
	// DegradeLowWatermark is the depth at or below which degrade mode
	// disengages (0 = DegradeWatermark/2). The gap is the hysteresis.
	DegradeLowWatermark int

	// MaxBatch caps how many requests one dispatch carries.
	MaxBatch int
	// MaxDelay bounds how long the scheduler waits for a batch to
	// fill once it holds at least one request. The window holds only
	// while no request at another budget waits on the worker; once one
	// does, the batch takes what is already queued and dispatches.
	MaxDelay time.Duration
	// QueueCap bounds the admission queue; a full queue sheds.
	QueueCap int
	// BatchWorkers is the batch-level parallelism handed to
	// InferBatchContext (1 = serial single-arena path, <1 = GOMAXPROCS).
	BatchWorkers int
	// Workers is the number of replicated batch workers consuming the
	// admission queue; each collects and executes micro-batches
	// independently, so serving throughput scales with cores. 0 keeps
	// the single-worker scheduler (the deterministic PR 5 behaviour);
	// negative means GOMAXPROCS.
	Workers int

	// DefaultDeadline applies to requests that carry none; MaxDeadline
	// clamps what a client may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetryAfter is the hint stamped on 429/503 responses.
	RetryAfter time.Duration

	// ModelVersion labels the boot model (what /healthz reports until the
	// first hot-swap).
	ModelVersion string
	// Reload, when set, is the hot-swap source: POST /v1/reload (and the
	// CLI's SIGHUP path) calls it off the serving path to build a
	// replacement plan or family — typically by re-reading a model
	// artifact from disk — then swaps it in between micro-batches. It
	// must return the same shape the server booted with: a Family for a
	// family server (with an identical budget ladder) or a single Plan,
	// matching input dims. Never load client-supplied paths here; the
	// source location is fixed at boot.
	Reload func(ctx context.Context) (*intinfer.Plan, *intinfer.Family, string, error)

	// Obs receives the trq_serve_* metrics; nil gets a private registry.
	Obs *obs.Registry
}

// Result is one answered classification.
type Result struct {
	Class     int
	BatchSize int           // images in the dispatch that carried this request
	QueueWait time.Duration // admission-to-dispatch time
	Budget    int           // TR group budget the request was served at (0: single-plan server)
	Degraded  bool          // admission stepped the budget down under load
}

// response is what the scheduler posts back on a request's done channel.
type response struct {
	class    int
	batch    int
	wait     time.Duration
	budget   int
	degraded bool
	err      error
}

// request is one admitted classification waiting for a batch slot. done
// is buffered so dispatch never blocks on a client that gave up.
type request struct {
	img      []float32
	deadline time.Time
	enqueued time.Time
	budget   int           // effective rung (0 on a single-plan server)
	degraded bool          // admission stepped the budget down
	wait     time.Duration // stamped at dispatch
	done     chan response
}

type metrics struct {
	ok, shed, timeout, failed, draining *obs.Counter
	batches, batchImages                *obs.Counter
	batchClose                          [numCloseReasons]*obs.Counter
	degraded                            *obs.Counter
	served                              map[int]*obs.Counter // per-rung, family servers only
	queueDepth                          *obs.Gauge
	degradeActive                       *obs.Gauge
	batchSize, queueWait, latency       *obs.Histogram

	// Worker-identity instruments, indexed by worker id: a 0/1 busy
	// gauge and a per-worker batch counter, plus the aggregate count of
	// batches currently executing across the pool.
	workerBusy      []*obs.Gauge
	workerBatches   []*obs.Counter
	inflightBatches *obs.Gauge

	// Hot-swap instruments: reload outcomes, the monotonically
	// increasing model epoch (how many models have been live), and how
	// long each swap waited for the outgoing model's in-flight batches.
	reloadOK, reloadErr *obs.Counter
	modelEpoch          *obs.Gauge
	swapDrain           *obs.Histogram
}

// servedFor returns the per-rung served counter; nil (a no-op sink) on
// single-plan servers.
func (m *metrics) servedFor(budget int) *obs.Counter { return m.served[budget] }

func newMetrics(r *obs.Registry, cfg Config) metrics {
	r.Help("trq_serve_requests_total", "classification requests by terminal status (ok, shed, timeout, error, draining)")
	r.Help("trq_serve_batches_total", "micro-batches dispatched to the inference plan")
	r.Help("trq_serve_batch_images_total", "images carried by dispatched micro-batches")
	r.Help("trq_serve_batch_close_total", "micro-batches cut by the scheduler, by why collection stopped (full, window, other_budget, drain)")
	r.Help("trq_serve_queue_depth", "requests admitted but not yet dispatched")
	r.Help("trq_serve_batch_size", "images per dispatched micro-batch")
	r.Help("trq_serve_queue_wait_seconds", "admission-to-dispatch wait per request")
	r.Help("trq_serve_request_latency_seconds", "HTTP handler latency per classification request")
	m := metrics{
		ok:          r.Counter("trq_serve_requests_total", "status", "ok"),
		shed:        r.Counter("trq_serve_requests_total", "status", "shed"),
		timeout:     r.Counter("trq_serve_requests_total", "status", "timeout"),
		failed:      r.Counter("trq_serve_requests_total", "status", "error"),
		draining:    r.Counter("trq_serve_requests_total", "status", "draining"),
		batches:     r.Counter("trq_serve_batches_total"),
		batchImages: r.Counter("trq_serve_batch_images_total"),
		queueDepth:  r.Gauge("trq_serve_queue_depth"),
		batchSize:   r.Histogram("trq_serve_batch_size", 0, float64(cfg.MaxBatch)+1, cfg.MaxBatch+1),
		// Ranged off the deadline config: queued requests legally wait up
		// to their deadline, which MaxDeadline caps. (Ranging off MaxDelay
		// clipped every tail wait into the top bucket.)
		queueWait: r.Histogram("trq_serve_queue_wait_seconds", 0, cfg.MaxDeadline.Seconds(), 128),
		latency:   r.Histogram("trq_serve_request_latency_seconds", 0, 0.25, 50),
	}
	for why, name := range closeReasonNames {
		m.batchClose[why] = r.Counter("trq_serve_batch_close_total", "reason", name)
	}
	r.Help("trq_serve_worker_busy", "1 while the labelled batch worker is executing a batch")
	r.Help("trq_serve_worker_batches_total", "micro-batches dispatched by the labelled batch worker")
	r.Help("trq_serve_inflight_batches", "micro-batches currently executing across the worker pool")
	m.inflightBatches = r.Gauge("trq_serve_inflight_batches")
	r.Help("trq_serve_reloads_total", "model hot-swap attempts by outcome")
	r.Help("trq_serve_model_epoch", "how many models have been live (1 = the boot model)")
	r.Help("trq_serve_swap_drain_seconds", "wait for the outgoing model's in-flight batches per hot-swap")
	m.reloadOK = r.Counter("trq_serve_reloads_total", "outcome", "ok")
	m.reloadErr = r.Counter("trq_serve_reloads_total", "outcome", "error")
	m.modelEpoch = r.Gauge("trq_serve_model_epoch")
	m.swapDrain = r.Histogram("trq_serve_swap_drain_seconds", 0, 1, 100)
	m.workerBusy = make([]*obs.Gauge, cfg.Workers)
	m.workerBatches = make([]*obs.Counter, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		id := strconv.Itoa(w)
		m.workerBusy[w] = r.Gauge("trq_serve_worker_busy", "worker", id)
		m.workerBatches[w] = r.Counter("trq_serve_worker_batches_total", "worker", id)
	}
	if cfg.Family != nil {
		r.Help("trq_serve_budget_degraded_total", "admissions stepped down one budget rung by the degradation policy")
		r.Help("trq_serve_budget_degrade_active", "1 while the degradation policy is engaged (queue depth crossed the watermark)")
		r.Help("trq_serve_budget_served_total", "requests answered ok by the TR group budget they ran at")
		m.degraded = r.Counter("trq_serve_budget_degraded_total")
		m.degradeActive = r.Gauge("trq_serve_budget_degrade_active")
		m.served = make(map[int]*obs.Counter)
		for _, b := range cfg.Family.Budgets() {
			m.served[b] = r.Counter("trq_serve_budget_served_total", "budget", strconv.Itoa(b))
		}
	}
	return m
}

// activeModel is one live generation of the served model: the compiled
// plan (or family), its version label, and a count of batches currently
// executing inside it. Dispatch pins the generation for the whole
// batch, so a swap mid-collect can never mix two models in one
// dispatch, and the swapper drains a retired generation by waiting for
// its count to reach zero — no WaitGroup, because batches keep starting
// on the new generation while the old one winds down.
type activeModel struct {
	plan     *intinfer.Plan
	fam      *intinfer.Family
	version  string
	inflight atomic.Int64
}

// planFor returns the plan a batch at the given budget runs through.
// Budgets are snapped onto the ladder at admission, and Swap enforces a
// ladder-identical family, so the rung always exists.
func (a *activeModel) planFor(budget int) *intinfer.Plan {
	if a.fam == nil {
		return a.plan
	}
	p, _ := a.fam.Plan(budget)
	return p
}

// Server is a micro-batching classification server. Construct with New,
// start with Start (or drive Classify in-process after the scheduler is
// running), stop with Drain.
type Server struct {
	// Addr is the bound listen address once Start returns (useful with
	// a ":0" request).
	Addr string

	cfg           Config
	inLen         int // c*h*w the plan expects
	defaultBudget int // resolved rung for hint-less requests (0: single-plan)

	// degrading is the degradation policy's hysteresis latch: set when
	// total outstanding depth reaches DegradeWatermark, cleared when it
	// falls back to DegradeLowWatermark. Plain atomic — concurrent
	// admissions may race the flip by one request, which only blurs the
	// engage edge, never correctness.
	degrading atomic.Bool

	// inflight counts images currently executing inside dispatched
	// batches, across all workers. Together with the queue-depth gauge
	// (admitted but not yet dispatched — queued, parked, or collecting)
	// it forms the outstanding depth the degradation watermark reads:
	// both halves are maintained on every dispatch path, including the
	// expired-in-queue and batch-error ones, so the sum is a coherent
	// cross-worker load signal, not a per-goroutine approximation.
	inflight atomic.Int64

	// mu guards draining and orders it against queue sends: submit
	// holds the read side, so once Drain flips the flag under the
	// write lock no submit can be mid-send and close(queue) is safe.
	mu sync.RWMutex
	//trlint:guarded-by(mu)
	draining bool
	//trlint:guarded-by(mu)
	queue chan *request

	// model is the live generation every dispatch pins; Swap replaces it
	// atomically between micro-batches. reloadMu serializes reloads
	// (TryLock: a second concurrent reload is refused, not queued).
	model    atomic.Pointer[activeModel]
	reloadMu sync.Mutex

	schedOnce    sync.Once
	schedStarted atomic.Bool
	schedDone    chan struct{}

	httpSrv  *http.Server
	ln       net.Listener
	serveErr atomic.Pointer[error]
	wg       sync.WaitGroup

	met metrics
}

// New validates the config, fills defaults, and returns a Server with
// nothing running yet: no listener, no scheduler goroutine.
func New(cfg Config) (*Server, error) {
	if cfg.Plan == nil && cfg.Family == nil {
		return nil, errors.New("serve: Config.Plan or Config.Family is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultMaxDelay
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	} else if cfg.Workers < 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = DefaultDeadline
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = DefaultMaxDeadline
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	defaultBudget := 0
	var c, h, w int
	if cfg.Family != nil {
		if cfg.DegradeWatermark <= 0 {
			cfg.DegradeWatermark = cfg.QueueCap / 2
			if cfg.DegradeWatermark < 1 {
				cfg.DegradeWatermark = 1
			}
		}
		if cfg.DegradeLowWatermark <= 0 {
			cfg.DegradeLowWatermark = cfg.DegradeWatermark / 2
		}
		if cfg.DefaultBudget == 0 {
			defaultBudget = cfg.Family.MaxBudget()
		} else {
			defaultBudget = cfg.Family.Clamp(cfg.DefaultBudget)
		}
		c, h, w = cfg.Family.InputDims()
	} else {
		c, h, w = cfg.Plan.InputDims()
	}
	s := &Server{
		cfg:           cfg,
		inLen:         c * h * w,
		defaultBudget: defaultBudget,
		queue:         make(chan *request, cfg.QueueCap),
		schedDone:     make(chan struct{}),
		met:           newMetrics(cfg.Obs, cfg),
	}
	s.model.Store(&activeModel{plan: cfg.Plan, fam: cfg.Family, version: cfg.ModelVersion})
	s.met.modelEpoch.Set(1)
	return s, nil
}

// Budgets returns the server's budget ladder, ascending; nil on a
// single-plan server.
func (s *Server) Budgets() []int {
	if s.cfg.Family == nil {
		return nil
	}
	return s.cfg.Family.Budgets()
}

// ModelVersion reports the version label of the model generation
// currently serving.
func (s *Server) ModelVersion() string {
	return s.model.Load().version
}

// Swap atomically replaces the served model between micro-batches, then
// waits (bounded by ctx) for batches still executing inside the retired
// generation to finish. The replacement must keep the server's shape:
// same plan-vs-family mode, same input dims, and — because admitted
// requests carry rungs snapped onto the boot ladder — an identical
// budget ladder. Requests are never dropped: batches dispatched before
// the swap complete on the old generation while new batches already run
// the new one.
func (s *Server) Swap(ctx context.Context, plan *intinfer.Plan, fam *intinfer.Family, version string) error {
	if (fam != nil) != (s.cfg.Family != nil) {
		return errors.New("serve: hot-swap cannot change between single-plan and family serving")
	}
	var c, h, w int
	if fam != nil {
		old := s.cfg.Family.Budgets()
		next := fam.Budgets()
		if len(old) != len(next) {
			return fmt.Errorf("serve: hot-swap budget ladder has %d rungs, the server was built with %d",
				len(next), len(old))
		}
		for i := range old {
			if old[i] != next[i] {
				return fmt.Errorf("serve: hot-swap budget ladder %v does not match the server's %v", next, old)
			}
		}
		c, h, w = fam.InputDims()
	} else {
		if plan == nil {
			return errors.New("serve: hot-swap needs a plan")
		}
		c, h, w = plan.InputDims()
	}
	if c*h*w != s.inLen {
		return fmt.Errorf("serve: hot-swap model wants %d input values, the server serves %d", c*h*w, s.inLen)
	}
	retired := s.model.Swap(&activeModel{plan: plan, fam: fam, version: version})
	s.met.modelEpoch.Add(1)
	start := time.Now()
	for retired.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			// The swap itself already happened; only the drain wait is
			// abandoned. Report it — the caller may still hold resources
			// (e.g. an arena) behind the retired plan.
			return fmt.Errorf("serve: waiting for the retired model's batches: %w", ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
	s.met.swapDrain.Observe(time.Since(start).Seconds())
	return nil
}

// Reload runs the configured reload source off the serving path and
// swaps the result in. Only one reload runs at a time; a concurrent
// call gets ErrReloadBusy immediately.
func (s *Server) Reload(ctx context.Context) (string, error) {
	if s.cfg.Reload == nil {
		return "", ErrNoReload
	}
	if !s.reloadMu.TryLock() {
		return "", ErrReloadBusy
	}
	defer s.reloadMu.Unlock()
	plan, fam, version, err := s.cfg.Reload(ctx)
	if err == nil {
		err = s.Swap(ctx, plan, fam, version)
	}
	if err != nil {
		s.met.reloadErr.Inc()
		return "", err
	}
	s.met.reloadOK.Inc()
	return version, nil
}

// startScheduler launches the worker pool exactly once. schedDone
// closes only when every worker has exited, so Drain joins the whole
// pool, not a single loop.
func (s *Server) startScheduler() {
	s.schedOnce.Do(func() {
		s.schedStarted.Store(true)
		var wg sync.WaitGroup
		for w := 0; w < s.cfg.Workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				s.worker(id)
			}(w)
		}
		go func() {
			wg.Wait()
			close(s.schedDone)
		}()
	})
}

// Start begins listening on addr (":0" for ephemeral) and launches the
// scheduler. The server runs until Drain.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.startScheduler()
	s.ln = ln
	s.Addr = ln.Addr().String()
	s.httpSrv = &http.Server{
		Handler: s.Handler(),
		// Same connection hygiene as the obs endpoint: a stalled or
		// parked client must not pin a connection forever.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr.Store(&err)
		}
	}()
	return nil
}

// Classify admits one image and blocks until the scheduler answers or
// ctx is done. The ctx deadline (clamped to MaxDeadline; DefaultDeadline
// when absent) is the request's serving deadline: once it lapses the
// request is answered 504-style with context.DeadlineExceeded whether it
// is still queued or mid-batch.
func (s *Server) Classify(ctx context.Context, img []float32) (Result, error) {
	return s.ClassifyBudget(ctx, img, 0)
}

// ClassifyBudget is Classify with a TR group budget hint: 0 takes the
// server default, anything else is snapped onto the family ladder. On a
// single-plan server any non-zero hint is ErrNoBudgets. The admitted
// budget may still be stepped down by the degradation policy; the
// Result reports what actually ran.
func (s *Server) ClassifyBudget(ctx context.Context, img []float32, budget int) (Result, error) {
	if len(img) != s.inLen {
		return Result{}, fmt.Errorf("serve: image has %d values, the plan wants %d", len(img), s.inLen)
	}
	if budget != 0 && s.cfg.Family == nil {
		return Result{}, ErrNoBudgets
	}
	if s.cfg.Family != nil {
		if budget == 0 {
			budget = s.defaultBudget
		} else {
			budget = s.cfg.Family.Clamp(budget)
		}
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(s.cfg.DefaultDeadline)
	}
	if latest := time.Now().Add(s.cfg.MaxDeadline); deadline.After(latest) {
		deadline = latest
	}
	req, err := s.submit(img, deadline, budget)
	if err != nil {
		return Result{}, err
	}
	select {
	case resp := <-req.done:
		if resp.err != nil {
			return Result{}, resp.err
		}
		return Result{Class: resp.class, BatchSize: resp.batch, QueueWait: resp.wait,
			Budget: resp.budget, Degraded: resp.degraded}, nil
	case <-ctx.Done():
		// The scheduler will still answer the buffered done channel and
		// account the request; there is just no one left to read it.
		return Result{}, ctx.Err()
	}
}

// admissionBudget applies the degrade-before-shed policy to a resolved
// budget: while the hysteresis latch is engaged (outstanding depth
// reached DegradeWatermark and has not fallen back to
// DegradeLowWatermark), new admissions run one rung below what they
// asked for. The depth is the cross-worker total — requests admitted
// but not yet dispatched plus images executing inside every worker's
// in-flight batch — so W busy workers exert the same degradation
// pressure whether their load is sitting in the queue or already on a
// GEMM lane. Requests already at the floor keep their budget — there is
// nowhere left to degrade to, and the queue's hard cap still sheds
// behind them.
func (s *Server) admissionBudget(budget int) (int, bool) {
	f := s.cfg.Family
	if f == nil {
		return budget, false
	}
	depth := s.met.queueDepth.Value() + s.inflight.Load()
	if s.degrading.Load() {
		if depth <= int64(s.cfg.DegradeLowWatermark) {
			s.degrading.Store(false)
			s.met.degradeActive.Set(0)
		}
	} else if depth >= int64(s.cfg.DegradeWatermark) {
		s.degrading.Store(true)
		s.met.degradeActive.Set(1)
	}
	if !s.degrading.Load() {
		return budget, false
	}
	lower, ok := f.StepDown(budget)
	if !ok {
		return budget, false
	}
	return lower, true
}

// submit performs admission: reject when draining, apply the degradation
// policy, shed when the queue is full, otherwise enqueue. The read lock
// orders the send against Drain's close(queue).
func (s *Server) submit(img []float32, deadline time.Time, budget int) (*request, error) {
	budget, degraded := s.admissionBudget(budget)
	r := &request{img: img, deadline: deadline, enqueued: time.Now(),
		budget: budget, degraded: degraded, done: make(chan response, 1)}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		s.met.draining.Inc()
		return nil, ErrDraining
	}
	select {
	case s.queue <- r:
		s.met.queueDepth.Add(1)
		if degraded {
			s.met.degraded.Inc()
		}
		return r, nil
	default:
		s.met.shed.Inc()
		return nil, ErrQueueFull
	}
}

// worker is one replica of the scheduler loop: block for the first
// request, collect until the batch is full, MaxDelay lapses or another
// budget's request waits, dispatch, repeat. Batches are
// budget-homogeneous: requests at a different budget than the batch
// under construction are parked on the worker's own carry list and seed
// its next rounds, so a mixed stream costs extra dispatches, never a
// mixed batch. Workers share nothing but the queue channel itself (an
// MPMC-safe receive) — carry list and delay timer are worker-local, and
// each dispatch draws scratch from the plan's sync.Pool, which shards
// per P. A closed queue (Drain) still yields its buffered requests
// before ok goes false — the runtime distributes them across however
// many workers are receiving — and the outer loop keeps dispatching
// until the carry list is empty too, so the flush is part of the same
// loop on every replica.
func (s *Server) worker(id int) {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var carry []*request
	for {
		var first *request
		if len(carry) > 0 {
			first, carry = carry[0], carry[1:]
		} else {
			//trlint:checked lock-free receive by design: workers are the only consumers (channel receives are MPMC-safe), and mu only orders sends against close
			r, ok := <-s.queue
			if !ok {
				return
			}
			first = r
		}
		var batch []*request
		var why closeReason
		batch, carry, why = s.collect(first, carry, timer)
		s.met.batchClose[why].Inc()
		s.dispatch(id, batch)
	}
}

// closeReason says why collect stopped growing a batch; it labels
// trq_serve_batch_close_total.
type closeReason int

const (
	closeFull        closeReason = iota // MaxBatch reached
	closeWindow                         // the MaxDelay timer fired
	closeOtherBudget                    // another budget's request waits on this worker
	closeDrain                          // the queue closed
	numCloseReasons
)

var closeReasonNames = [numCloseReasons]string{"full", "window", "other_budget", "drain"}

// collect grows a budget-homogeneous batch around its first member: up
// to MaxBatch same-budget requests, or whatever has arrived when the
// MaxDelay timer fires. Previously parked requests are adopted first;
// arrivals at another budget are parked and returned as the new carry
// list. The window holds only while nothing else waits on this worker:
// once a request at another budget is parked (left from the last round
// or arriving during this one), a longer wait would idle the worker
// while admitted work waits, so collect stops waiting on the timer,
// takes only the same-budget requests already queued, and cuts the
// batch. Parking is bounded by QueueCap — past that, collect stops
// early so the parked work drains before more piles up.
func (s *Server) collect(first *request, carry []*request, timer *time.Timer) (batch, parked []*request, why closeReason) {
	b := first.budget
	batch = []*request{first}
	parked = carry[:0]
	for _, r := range carry {
		if len(batch) < s.cfg.MaxBatch && r.budget == b {
			batch = append(batch, r)
		} else {
			parked = append(parked, r)
		}
	}
	if len(batch) >= s.cfg.MaxBatch {
		return batch, parked, closeFull
	}
	if len(parked) == 0 {
		timer.Reset(s.cfg.MaxDelay)
		defer func() {
			if !timer.Stop() {
				select { // drain a fired-but-unread timer for reuse
				case <-timer.C:
				default:
				}
			}
		}()
	}
	for len(batch) < s.cfg.MaxBatch {
		var r *request
		var ok bool
		if len(parked) == 0 {
			select {
			//trlint:checked lock-free receive by design: collect runs on a worker goroutine; channel receives are MPMC-safe and mu only orders sends against close
			case r, ok = <-s.queue:
			case <-timer.C:
				return batch, parked, closeWindow
			}
		} else {
			select {
			//trlint:checked lock-free receive by design: collect runs on a worker goroutine; channel receives are MPMC-safe and mu only orders sends against close
			case r, ok = <-s.queue:
			default: // the queue is empty: serve the parked work next
				return batch, parked, closeOtherBudget
			}
		}
		if !ok {
			return batch, parked, closeDrain // draining: flush what we hold
		}
		if r.budget != b {
			parked = append(parked, r)
			if len(parked) >= s.cfg.QueueCap {
				return batch, parked, closeOtherBudget
			}
			continue
		}
		batch = append(batch, r)
	}
	return batch, parked, closeFull
}

// dispatch answers every request in the batch exactly once on worker
// id. Requests whose deadline lapsed in the queue are answered 504 up
// front and do not occupy a batch slot; the survivors run under the
// latest live deadline, and each is re-checked against its own deadline
// once the batch returns. While the batch executes, its image count
// rides the cross-worker in-flight gauge the degradation watermark
// reads, and the worker's busy gauge is up — both are restored on every
// exit path, success or error, so the accounting stays balanced.
func (s *Server) dispatch(id int, batch []*request) {
	now := time.Now()
	live := batch[:0]
	var latest time.Time
	for _, r := range batch {
		s.met.queueDepth.Add(-1)
		r.wait = now.Sub(r.enqueued)
		s.met.queueWait.Observe(r.wait.Seconds())
		if now.After(r.deadline) {
			s.met.timeout.Inc()
			r.done <- response{wait: r.wait, err: context.DeadlineExceeded}
			continue
		}
		live = append(live, r)
		if r.deadline.After(latest) {
			latest = r.deadline
		}
	}
	if len(live) == 0 {
		return
	}
	s.met.batches.Inc()
	s.met.workerBatches[id].Inc()
	s.met.batchImages.Add(int64(len(live)))
	s.met.batchSize.Observe(float64(len(live)))
	images := make([][]float32, len(live))
	for i, r := range live {
		images[i] = r.img
	}
	s.inflight.Add(int64(len(live)))
	s.met.workerBusy[id].Set(1)
	s.met.inflightBatches.Add(1)
	// Pin the live model generation for the whole batch: a hot-swap that
	// lands mid-dispatch retires this generation but the batch finishes
	// on it, refcounted so the swapper knows when it has drained.
	am := s.model.Load()
	am.inflight.Add(1)
	ctx, cancel := context.WithDeadline(context.Background(), latest)
	preds, err := am.planFor(live[0].budget).InferBatchContext(ctx, images, s.cfg.BatchWorkers)
	cancel()
	am.inflight.Add(-1)
	s.met.inflightBatches.Add(-1)
	s.met.workerBusy[id].Set(0)
	s.inflight.Add(-int64(len(live)))
	finished := time.Now()
	for i, r := range live {
		switch {
		case err != nil:
			// The whole batch failed. Deadline pressure (the batch ran
			// past the latest deadline, or past this member's own) is a
			// timeout; anything else is a server error.
			if errors.Is(err, context.DeadlineExceeded) || finished.After(r.deadline) {
				s.met.timeout.Inc()
				r.done <- response{wait: r.wait, err: context.DeadlineExceeded}
			} else {
				s.met.failed.Inc()
				r.done <- response{wait: r.wait, err: err}
			}
		case finished.After(r.deadline):
			s.met.timeout.Inc()
			r.done <- response{wait: r.wait, err: context.DeadlineExceeded}
		default:
			s.met.ok.Inc()
			s.met.servedFor(r.budget).Inc()
			r.done <- response{class: preds[i], batch: len(live), wait: r.wait,
				budget: r.budget, degraded: r.degraded}
		}
	}
}

// Drain gracefully stops the server: stop admitting (new requests get
// ErrDraining), flush every queued request through the worker pool and
// join all workers (schedDone closes only once the last replica has
// flushed its carry list and exited), then shut the HTTP listener down,
// letting in-flight handlers finish. It is idempotent and safe to call
// concurrently; ctx bounds the whole wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	if s.schedStarted.Load() {
		select {
		case <-s.schedDone:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if s.httpSrv == nil {
		return nil
	}
	err := s.httpSrv.Shutdown(ctx)
	s.wg.Wait()
	if p := s.serveErr.Load(); p != nil && err == nil {
		err = *p
	}
	return err
}

// Stats is a point-in-time view of the serving counters, for tests and
// the selfload report (the same numbers /metrics exposes).
type Stats struct {
	OK, Shed, Timeout, Errors, Draining int64
	Batches, BatchImages                int64
	QueueDepth                          int64
	// InflightImages and InflightBatches are the cross-worker execution
	// depth (images / batches currently inside InferBatchContext);
	// WorkerBatches is the per-worker dispatch count, indexed by worker
	// id; WorkersBusy is how many workers are mid-batch right now.
	InflightImages  int64
	InflightBatches int64
	WorkersBusy     int64
	WorkerBatches   []int64
	// Degraded counts admissions stepped down a rung; BudgetServed maps
	// each ladder rung to the requests answered ok at it. Both are zero /
	// nil on a single-plan server.
	Degraded     int64
	BudgetServed map[int]int64
	// Reloads / ReloadErrors count hot-swap attempts by outcome.
	Reloads      int64
	ReloadErrors int64
}

// Stats reads the current counter values.
func (s *Server) Stats() Stats {
	st := Stats{
		OK:          s.met.ok.Value(),
		Shed:        s.met.shed.Value(),
		Timeout:     s.met.timeout.Value(),
		Errors:      s.met.failed.Value(),
		Draining:    s.met.draining.Value(),
		Batches:     s.met.batches.Value(),
		BatchImages: s.met.batchImages.Value(),
		QueueDepth:  s.met.queueDepth.Value(),
		Degraded:    s.met.degraded.Value(),

		InflightImages:  s.inflight.Load(),
		InflightBatches: s.met.inflightBatches.Value(),

		Reloads:      s.met.reloadOK.Value(),
		ReloadErrors: s.met.reloadErr.Value(),
	}
	st.WorkerBatches = make([]int64, len(s.met.workerBatches))
	for w, c := range s.met.workerBatches {
		st.WorkerBatches[w] = c.Value()
	}
	for _, g := range s.met.workerBusy {
		st.WorkersBusy += g.Value()
	}
	if s.met.served != nil {
		st.BudgetServed = make(map[int]int64, len(s.met.served))
		for b, c := range s.met.served {
			st.BudgetServed[b] = c.Value()
		}
	}
	return st
}
