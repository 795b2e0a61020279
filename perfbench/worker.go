package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/intinfer"
	"repro/internal/kernels"
	"repro/internal/kernels/autotune"
	"repro/internal/obs"
	"repro/internal/serve"
)

// closedInflight is closed_cnn's fixed number of requests in flight. It
// keeps both workers' micro-batches (MaxBatch 8) nearly full while the
// outstanding depth stays below the default degrade watermark
// (QueueCap/2 = 32), so no request is degraded or shed.
const closedInflight = 24

// offlineBatch is offline_mlp's library batch size.
const offlineBatch = 64

// workerResult is what one fresh measuring process reports on its last
// stdout line.
type workerResult struct {
	SetupS     float64        `json:"setup_s"`
	TunedTiles float64        `json:"tuned_tiles"`
	Lat        latencySummary `json:"lat_ms"`
	Items      int64          `json:"items"`
	Attempted  int64          `json:"attempted"`
	Failed     int64          `json:"failed"`
	Mismatches int64          `json:"mismatches"`
	FirstError string         `json:"first_error,omitempty"`
	WallS      float64        `json:"wall_s"`
	CPUS       float64        `json:"cpu_s"`
	RSSMiB     float64        `json:"rss_mib"`
	Layers     layers         `json:"layers,omitempty"`
}

// tally collects one goroutine's outcomes; merged under a lock at the
// end of a phase.
type tally struct {
	lat                           []float64
	ok, attempted, failed, misses int64
	firstErr                      string
	clientSum                     time.Duration
}

func (t *tally) fail(mismatch bool, err error) {
	if mismatch {
		t.misses++
	} else {
		t.failed++
	}
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.ok += o.ok
	t.attempted += o.attempted
	t.failed += o.failed
	t.misses += o.misses
	t.clientSum += o.clientSum
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func (r *workerResult) take(t *tally, wall time.Duration) {
	r.Lat = summarize(t.lat)
	r.Items = t.ok
	r.Attempted = t.attempted
	r.Failed = t.failed
	r.Mismatches = t.misses
	r.FirstError = t.firstErr
	r.WallS = wall.Seconds()
}

// scrape renders a registry through its Prometheus exposition and
// parses it back, the same path a child server's /metrics takes.
func scrape(reg *obs.Registry) series {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return series{}
	}
	s, err := parseProm(strings.NewReader(b.String()))
	if err != nil {
		return series{}
	}
	return s
}

// wiredRegistry returns the registry a worker's set-up reports into.
// The tile tuner's counters are always wired: they are how a run proves
// its set-ups took every tile from the warm cache. The kernel and
// artifact counters are wired only in traced runs.
func wiredRegistry(trace bool) *obs.Registry {
	reg := obs.New()
	autotune.SetObs(reg)
	if trace {
		kernels.SetObs(reg)
		artifact.SetObs(reg)
	}
	return reg
}

// coldSetup times one cold in-process set-up: load the artifact and
// compile the family (plan metrics go to planReg, nil for none), then
// run extra, if any, inside the same timing. It records the set-up time
// and the tiles it tuned in res and returns the family with the
// set-up's layer metrics.
func coldSetup(res *workerResult, w workload, p *prepared, reg, planReg *obs.Registry, tr *tracer, extra func(*intinfer.Family) error) (*intinfer.Family, layers, error) {
	before := scrape(reg)
	t0 := time.Now()
	sp := tr.begin("setup", -1, -1)
	fam, load, compile, err := loadFamily(p.Artifact, planReg, tr, sp)
	if err == nil && extra != nil {
		err = extra(fam)
	}
	res.SetupS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	d := scrape(reg).sub(before)
	res.TunedTiles = d.get("trq_kernels_autotune_total", "outcome", "measured")
	l := layers{
		"artifact.load_ms." + w.Model:  load.Seconds() * 1e3,
		"compile.family_ms." + w.Model: compile.Seconds() * 1e3,
		"artifact.bytes." + w.Model:    float64(p.Bytes),
	}
	autotuneLayers(l, d)
	return fam, l, nil
}

// requestDeadlineMs is the serving deadline every benchmark request
// asks for. The server default (50 ms) turns a host stall of a few tens
// of milliseconds into 504s; a second keeps such stalls in the latency
// figures, where they belong, instead of in the failure count.
const requestDeadlineMs = 1000

// classifyBody mirrors the wire form of POST /v1/classify.
type classifyBody struct {
	Image      []float32 `json:"image"`
	DeadlineMs int64     `json:"deadline_ms"`
	Budget     int       `json:"budget,omitempty"`
	Quality    *float64  `json:"quality,omitempty"`
}

// classifyReply mirrors the success body of POST /v1/classify.
type classifyReply struct {
	Class    int  `json:"class"`
	Budget   int  `json:"budget"`
	Degraded bool `json:"degraded"`
}

// encodeBodies pre-encodes every pool request and the rung each should
// run at: the hinted budget, or the ladder top for quality 1.0 and for
// no hint (the server default).
func encodeBodies(imgs [][]float32, hints []hint, top int) ([][]byte, []int, error) {
	bodies := make([][]byte, len(imgs))
	want := make([]int, len(imgs))
	for i, img := range imgs {
		b := classifyBody{Image: img, DeadlineMs: requestDeadlineMs}
		want[i] = top
		if hints != nil {
			b.Budget, b.Quality = hints[i].Budget, hints[i].Quality
			if b.Budget != 0 {
				want[i] = b.Budget
			}
		}
		var err error
		if bodies[i], err = json.Marshal(b); err != nil {
			return nil, nil, err
		}
	}
	return bodies, want, nil
}

// checkReply decodes a 200 body and applies the answer check: the class
// must equal the library's class at the rung the reply echoes, and an
// undegraded reply must echo the rung the request asked for.
func checkReply(body []byte, img, want int, r *refs) error {
	var rep classifyReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("image %d: bad reply %q: %w", img, body, err)
	}
	if !rep.Degraded && rep.Budget != want {
		return fmt.Errorf("image %d: reply ran at budget %d, the request asked for %d", img, rep.Budget, want)
	}
	return r.check(img, rep.Budget, rep.Class)
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.hdr }
func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}
func (w *recorder) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

// driveClosed runs a closed loop of inflight goroutines against h for
// d: each sends the next pool request through h.ServeHTTP as soon as
// its previous one returns. Only timed phases record latency.
func driveClosed(h http.Handler, bodies [][]byte, want []int, r *refs, d time.Duration, tr *tracer, record bool) (*tally, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	total := &tally{}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < closedInflight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tally{}
			rec := &recorder{hdr: http.Header{}}
			// One request value per goroutine, re-armed with the next
			// body each time, so the loop itself allocates next to
			// nothing and the allocator counters stay the server's.
			rd := bytes.NewReader(nil)
			req, err := http.NewRequest(http.MethodPost, "/v1/classify", io.NopCloser(rd))
			if err != nil {
				panic(err) // a constant method and path cannot fail to parse
			}
			for time.Since(start) < d {
				n := next.Add(1) - 1
				i := int(n % int64(len(bodies)))
				rd.Reset(bodies[i])
				req.ContentLength = int64(len(bodies[i]))
				rec.reset()
				sp := tr.begin("serve.Handler.ServeHTTP", -1, n)
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				el := time.Since(t0)
				tr.end(sp)
				if !record {
					continue
				}
				t.attempted++
				t.clientSum += el
				if rec.code != http.StatusOK {
					t.fail(false, fmt.Errorf("image %d: status %d: %s", i, rec.code, strings.TrimSpace(rec.body.String())))
					continue
				}
				t.lat = append(t.lat, el.Seconds()*1e3)
				if err := checkReply(rec.body.Bytes(), i, want[i], r); err != nil {
					t.fail(true, err)
					continue
				}
				t.ok++
			}
			mu.Lock()
			total.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, time.Since(start)
}

// runClosedWorker is one closed_cnn process: a cold set-up of an
// in-process serve.Server over the CNN family with one batch worker per
// core, then a closed loop through its HTTP handler for slice.
func runClosedWorker(w workload, o *options, p *prepared) (*workerResult, error) {
	tr := newTracer(o.trace)
	reg := wiredRegistry(o.trace)
	res := &workerResult{}
	var srv *serve.Server
	fam, l, err := coldSetup(res, w, p, reg, reg, tr, func(fam *intinfer.Family) error {
		var err error
		if srv, err = serve.New(serve.Config{Family: fam, Workers: -1, Obs: reg}); err != nil {
			return err
		}
		return srv.Start("127.0.0.1:0")
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
		}
	}()
	if o.slice <= 0 {
		return res, tr.write(o.spansPath())
	}

	imgs := w.images(o.seed, p.model())
	bodies, want, err := encodeBodies(imgs, hintMix(o.seed, len(imgs)), fam.MaxBudget())
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	driveClosed(h, bodies, want, &p.Refs, 200*time.Millisecond, nil, false)
	runtime.GC()

	s0, m0, c0 := scrape(reg), readMem(), selfCPU()
	t, wall := driveClosed(h, bodies, want, &p.Refs, secs(o.slice), tr, true)
	c1, m1, s1 := selfCPU(), readMem(), scrape(reg)
	res.take(t, wall)
	res.CPUS = (c1 - c0).Seconds()
	if res.RSSMiB, err = peakRSSMiB("self"); err != nil {
		return nil, err
	}
	if o.trace {
		d := s1.sub(s0)
		serveLayers(l, d, m1.sub(m0), wall.Seconds(), runtime.GOMAXPROCS(0),
			div(float64(t.clientSum.Microseconds()), float64(t.attempted)))
		planLayers(l, d, w.Model)
		// The server is idle now, so the probe has the cores to itself.
		if err := probeSteps(l, fam, reg, imgs, w.Model); err != nil {
			return nil, err
		}
		res.Layers = l
	}
	return res, tr.write(o.spansPath())
}

// runOfflineWorker is one offline process: a cold set-up of the model's
// family, then library batches of 64 at the top rung through
// Family.InferBatchContext for slice, each run serially by one of
// GOMAXPROCS callers, every prediction checked against single-image
// Classify. Traced runs build the family with Options.Obs (off by
// default in the library) and add the per-step probes.
func runOfflineWorker(w workload, o *options, p *prepared) (*workerResult, error) {
	tr := newTracer(o.trace)
	reg := wiredRegistry(o.trace)
	var planReg *obs.Registry
	if o.trace {
		planReg = reg
	}
	res := &workerResult{}
	fam, l, err := coldSetup(res, w, p, reg, planReg, tr, nil)
	if err != nil {
		return nil, err
	}
	if o.slice <= 0 {
		return res, tr.write(o.spansPath())
	}

	imgs := w.images(o.seed, p.model())
	top := fam.MaxBudget()
	ref := p.Refs.Classes[top]
	ctx := context.Background()
	batches := len(imgs) / offlineBatch
	callers := runtime.GOMAXPROCS(0)
	// One serial caller per core. With one core busy and the other idle
	// the 2-vCPU host alternates between two speeds for seconds at a
	// time, which made single-caller numbers bimodal; with every core
	// busy the fast mode disappears. Each call is still one serial
	// batch (workers = 1) on its caller's core.
	loop := func(d time.Duration, record bool) (*tally, time.Duration) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		total := &tally{}
		start := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := &tally{}
				for j := c; time.Since(start) < d; j = (j + callers) % batches {
					lo := j * offlineBatch
					sp := tr.begin("intinfer.Family.InferBatchContext", -1, int64(j))
					bt := time.Now()
					preds, err := fam.InferBatchContext(ctx, imgs[lo:lo+offlineBatch], 1, top)
					el := time.Since(bt)
					tr.end(sp)
					if !record {
						continue
					}
					t.attempted++
					if err != nil {
						t.fail(false, err)
						continue
					}
					t.lat = append(t.lat, el.Seconds()*1e3)
					if err := checkBatch(preds, ref[lo:lo+offlineBatch], lo); err != nil {
						t.fail(true, err)
						continue
					}
					t.ok += offlineBatch
				}
				mu.Lock()
				total.merge(t)
				mu.Unlock()
			}()
		}
		wg.Wait()
		return total, time.Since(start)
	}
	loop(200*time.Millisecond, false)
	runtime.GC()
	s0, c0 := scrape(reg), selfCPU()
	t, wall := loop(secs(o.slice), true)
	c1, s1 := selfCPU(), scrape(reg)
	res.take(t, wall)
	res.CPUS = (c1 - c0).Seconds()
	if res.RSSMiB, err = peakRSSMiB("self"); err != nil {
		return nil, err
	}
	if o.trace {
		planLayers(l, s1.sub(s0), w.Model)
		if err := probeSteps(l, fam, reg, imgs, w.Model); err != nil {
			return nil, err
		}
		res.Layers = l
	}
	return res, tr.write(o.spansPath())
}

// probeSteps measures each plan step's mean latency at the batch sizes
// the layer metrics name: MLP fc1/fc2 at 1, 8 and 64, the CNN's steps
// at 8. Each size runs for a fixed share of a second at the top rung.
func probeSteps(l layers, fam *intinfer.Family, reg *obs.Registry, imgs [][]float32, model string) error {
	steps, sizes := mlpSteps, mlpProbeBatches
	if model == "cnn" {
		steps, sizes = cnnSteps, []int{cnnProbeBatch}
	}
	ctx := context.Background()
	for _, b := range sizes {
		s0 := scrape(reg)
		start := time.Now()
		for j := 0; time.Since(start) < 150*time.Millisecond; j = (j + b) % (len(imgs) - b) {
			if _, err := fam.InferBatchContext(ctx, imgs[j:j+b], 1, fam.MaxBudget()); err != nil {
				return fmt.Errorf("step probe at batch %d: %w", b, err)
			}
		}
		for s, us := range stepUs(scrape(reg).sub(s0), steps) {
			l[fmt.Sprintf("intinfer.step_us.%s.%s.b%d", model, s, b)] = us
		}
	}
	return nil
}

// checkBatch compares a batch's classes with the single-image
// reference classes of the images starting at pool index lo.
func checkBatch(got, want []int, lo int) error {
	if len(got) != len(want) {
		return fmt.Errorf("batch at image %d: %d classes for %d images", lo, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("image %d: batch class %d, single-image class %d", lo+k, got[k], want[k])
		}
	}
	return nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
