package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/demoplan"
	"repro/internal/intinfer"
	"repro/internal/obs"
)

// The demo family (the default 4, 8, 12 ladder) is trained once and
// shared, like the one-rung family.
var (
	famOnce   sync.Once
	testFamV  *intinfer.Family
	famImages [][]float32
	famErr    error
)

func testFamily(t testing.TB) (*intinfer.Family, [][]float32) {
	t.Helper()
	famOnce.Do(func() {
		fam, test, err := demoplan.MLPFamily(obs.New(), nil)
		if err != nil {
			famErr = err
			return
		}
		testFamV, famImages = fam, test.Images
	})
	if famErr != nil {
		t.Fatalf("building demo family: %v", famErr)
	}
	return testFamV, famImages
}

// newFamilyServer serves the three-rung family with one worker, so
// tests that count batches see one scheduler cut them.
func newFamilyServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	fam, _ := testFamily(t)
	cfg := Config{Family: fam, MaxBatch: 8, MaxDelay: time.Millisecond,
		QueueCap: 128, BatchWorkers: 1, Workers: 1, DefaultDeadline: 5 * time.Second,
		// High watermark by default so tests that don't exercise the
		// degradation policy never trip it.
		DegradeWatermark: 127}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMixedBudgetsBatchHomogeneously pre-queues an alternating 4/12
// budget stream and checks the scheduler cuts exactly two full
// same-budget batches: mixed arrivals cost extra dispatches, never a
// mixed batch.
func TestMixedBudgetsBatchHomogeneously(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, nil)

	const n = 16
	deadline := time.Now().Add(5 * time.Second)
	reqs := make([]*request, n)
	for i := range reqs {
		budget := 4
		if i%2 == 1 {
			budget = 12
		}
		r, err := s.submit(images[i%len(images)], deadline, budget)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs[i] = r
	}
	s.startScheduler()
	for i, r := range reqs {
		resp := <-r.done
		if resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
		want := 4
		if i%2 == 1 {
			want = 12
		}
		if resp.budget != want {
			t.Errorf("request %d served at budget %d, want %d", i, resp.budget, want)
		}
		if resp.degraded {
			t.Errorf("request %d flagged degraded with the policy disengaged", i)
		}
		if resp.batch != s.cfg.MaxBatch {
			t.Errorf("request %d rode a batch of %d, want a full same-budget batch of %d",
				i, resp.batch, s.cfg.MaxBatch)
		}
	}
	st := s.Stats()
	if st.Batches != 2 || st.BatchImages != n {
		t.Errorf("stats: %d batches / %d images, want 2 / %d", st.Batches, st.BatchImages, n)
	}
	if st.BudgetServed[4] != n/2 || st.BudgetServed[12] != n/2 {
		t.Errorf("BudgetServed = %v, want %d at each of 4 and 12", st.BudgetServed, n/2)
	}
}

// TestFamilyServedClassesMatchRungs checks the served answer really
// comes from the requested rung: each budget's HTTP answer is
// bit-identical to that rung's direct Classify.
func TestFamilyServedClassesMatchRungs(t *testing.T) {
	fam, images := testFamily(t)
	s := newFamilyServer(t, nil)
	s.startScheduler()
	for _, budget := range fam.Budgets() {
		p, _ := fam.Plan(budget)
		for i := 0; i < 8; i++ {
			want, err := p.Classify(images[i])
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.ClassifyBudget(context.Background(), images[i], budget)
			if err != nil {
				t.Fatalf("budget %d image %d: %v", budget, i, err)
			}
			if res.Class != want {
				t.Errorf("budget %d image %d: served %d, rung Classify %d", budget, i, res.Class, want)
			}
			if res.Budget != budget {
				t.Errorf("budget %d image %d echoed budget %d", budget, i, res.Budget)
			}
		}
	}
}

// TestDegradeBeforeShed pins the admission band: once queue depth
// reaches the watermark, new admissions run one rung below their ask
// (flagged degraded) instead of shedding, requests already at the floor
// keep their budget, and the latch disengages with hysteresis once the
// queue drains past the low watermark.
func TestDegradeBeforeShed(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, func(c *Config) {
		c.DegradeWatermark = 2
		c.DegradeLowWatermark = 1
	})

	deadline := time.Now().Add(5 * time.Second)
	sub := func(budget int) *request {
		t.Helper()
		r, err := s.submit(images[0], deadline, budget)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := sub(12), sub(12) // depth 0, 1: below watermark
	if r1.degraded || r2.degraded || r1.budget != 12 || r2.budget != 12 {
		t.Fatalf("pre-watermark admissions altered: %+v %+v", r1, r2)
	}
	r3 := sub(12) // depth 2: watermark reached, policy engages
	if !r3.degraded || r3.budget != 8 {
		t.Fatalf("admission at watermark not degraded: budget %d degraded %v", r3.budget, r3.degraded)
	}
	r4 := sub(8) // still engaged: mid-ladder ask steps down too
	if !r4.degraded || r4.budget != 4 {
		t.Fatalf("mid-ladder admission not degraded: budget %d degraded %v", r4.budget, r4.degraded)
	}
	r5 := sub(4) // floor: nowhere to step down, keeps its budget
	if r5.degraded || r5.budget != 4 {
		t.Fatalf("floor admission altered: budget %d degraded %v", r5.budget, r5.degraded)
	}
	if st := s.Stats(); st.Degraded != 2 || st.Shed != 0 {
		t.Fatalf("stats Degraded=%d Shed=%d, want 2, 0", st.Degraded, st.Shed)
	}
	if s.met.degradeActive.Value() != 1 {
		t.Error("trq_serve_budget_degrade_active not set while engaged")
	}

	s.startScheduler()
	for _, r := range []*request{r1, r2, r3, r4, r5} {
		resp := <-r.done
		if resp.err != nil {
			t.Fatal(resp.err)
		}
		if resp.budget != r.budget || resp.degraded != r.degraded {
			t.Errorf("response budget %d/%v does not echo admission %d/%v",
				resp.budget, resp.degraded, r.budget, r.degraded)
		}
	}
	// Queue fully drained (depth 0 <= low watermark): next admission
	// disengages the latch and keeps its budget.
	r6 := sub(12)
	if r6.degraded || r6.budget != 12 {
		t.Errorf("post-drain admission still degraded: budget %d degraded %v", r6.budget, r6.degraded)
	}
	if s.met.degradeActive.Value() != 0 {
		t.Error("trq_serve_budget_degrade_active still set after disengage")
	}
	<-r6.done
}

// TestDegradeHysteresisHoldsBetweenWatermarks pins the flap guard: with
// the latch engaged, a depth between the low and high watermarks keeps
// degrading (it neither disengages early nor waits for a fresh crossing).
func TestDegradeHysteresisHoldsBetweenWatermarks(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, func(c *Config) {
		c.DegradeWatermark = 4
		c.DegradeLowWatermark = 1
	})
	deadline := time.Now().Add(5 * time.Second)
	var reqs []*request
	for i := 0; i < 5; i++ { // depths 0..4: the 5th engages the latch
		r, err := s.submit(images[0], deadline, 12)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	if !reqs[4].degraded {
		t.Fatal("watermark admission not degraded")
	}
	// Hand-drain two requests via dispatch to bring depth to 3 — inside
	// the hysteresis band.
	s.dispatch(0, reqs[:2])
	r, err := s.submit(images[0], deadline, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !r.degraded || r.budget != 8 {
		t.Errorf("in-band admission not held degraded: budget %d degraded %v", r.budget, r.degraded)
	}
	s.dispatch(0, append(reqs[2:], r))
	for _, q := range append(reqs, r) {
		<-q.done
	}
}

// TestBudgetHintHTTP covers the JSON dial end to end: budget and
// quality hints resolve to ladder rungs and are echoed; invalid hints
// are client errors, not server surprises.
func TestBudgetHintHTTP(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, nil)
	s.startScheduler()

	classify := func(body any) (int, classifyResponse, string) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(raw)))
		var out classifyResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, out, rec.Body.String()
	}

	// Exact rung, off-ladder clamp, and the default.
	if code, out, body := classify(classifyRequest{Image: images[0], Budget: 8}); code != 200 || out.Budget != 8 {
		t.Errorf("budget 8: code %d, echoed %d (%s)", code, out.Budget, body)
	}
	if code, out, body := classify(classifyRequest{Image: images[0], Budget: 11}); code != 200 || out.Budget != 12 {
		t.Errorf("budget 11 should clamp to 12: code %d, echoed %d (%s)", code, out.Budget, body)
	}
	if code, out, body := classify(classifyRequest{Image: images[0]}); code != 200 || out.Budget != 12 {
		t.Errorf("default budget should be the family max: code %d, echoed %d (%s)", code, out.Budget, body)
	}

	// Quality maps across the ladder.
	q := func(v float64) *float64 { return &v }
	if code, out, body := classify(classifyRequest{Image: images[0], Quality: q(0)}); code != 200 || out.Budget != 4 {
		t.Errorf("quality 0: code %d, echoed %d (%s)", code, out.Budget, body)
	}
	if code, out, body := classify(classifyRequest{Image: images[0], Quality: q(0.5)}); code != 200 || out.Budget != 8 {
		t.Errorf("quality 0.5: code %d, echoed %d (%s)", code, out.Budget, body)
	}
	if code, out, body := classify(classifyRequest{Image: images[0], Quality: q(1)}); code != 200 || out.Budget != 12 {
		t.Errorf("quality 1: code %d, echoed %d (%s)", code, out.Budget, body)
	}

	// Invalid hints are 400s.
	for name, body := range map[string]classifyRequest{
		"negative budget": {Image: images[0], Budget: -3},
		"quality over 1":  {Image: images[0], Quality: q(1.5)},
		"both hints":      {Image: images[0], Budget: 8, Quality: q(0.5)},
	} {
		if code, _, resp := classify(body); code != http.StatusBadRequest {
			t.Errorf("%s got %d (%s), want 400", name, code, resp)
		}
	}
}

// TestOneRungClampsHints pins the single-budget server, a one-rung
// ladder: every budget or quality hint lands on the rung, answers 200,
// and echoes the rung, in process and over HTTP, as a hint-less
// request does; invalid hints are still 400s.
func TestOneRungClampsHints(t *testing.T) {
	plan, images := testPlan(t)
	s := newTestServer(t, nil)
	s.startScheduler()
	want, err := plan.Classify(images[0])
	if err != nil {
		t.Fatal(err)
	}

	for _, hint := range []int{0, 4, rung, 99, -3} {
		res, err := s.ClassifyBudget(context.Background(), images[0], hint)
		if err != nil {
			t.Fatalf("in-process hint %d: %v", hint, err)
		}
		if res.Budget != rung || res.Degraded || res.Class != want {
			t.Errorf("in-process hint %d: budget %d degraded %v class %d, want budget %d class %d",
				hint, res.Budget, res.Degraded, res.Class, rung, want)
		}
	}

	q := func(v float64) *float64 { return &v }
	for name, body := range map[string]classifyRequest{
		"no hint":     {Image: images[0]},
		"budget 4":    {Image: images[0], Budget: 4},
		"budget 99":   {Image: images[0], Budget: 99},
		"quality 0":   {Image: images[0], Quality: q(0)},
		"quality 0.5": {Image: images[0], Quality: q(0.5)},
		"quality 1":   {Image: images[0], Quality: q(1)},
	} {
		rec := serveBody(s.Handler(), marshal(t, body))
		var out classifyResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
			t.Fatalf("%s: got %d (%s), want 200", name, rec.Code, rec.Body.String())
		}
		if out.Budget != rung || out.Class != want {
			t.Errorf("%s: echoed budget %d class %d, want %d and %d (%s)",
				name, out.Budget, out.Class, rung, want, rec.Body.String())
		}
	}
	for name, body := range map[string]classifyRequest{
		"negative budget": {Image: images[0], Budget: -3},
		"quality over 1":  {Image: images[0], Quality: q(1.5)},
		"both hints":      {Image: images[0], Budget: 8, Quality: q(0.5)},
	} {
		if rec := serveBody(s.Handler(), marshal(t, body)); rec.Code != http.StatusBadRequest {
			t.Errorf("%s got %d (%s), want 400", name, rec.Code, rec.Body.String())
		}
	}
	if st := s.Stats(); st.BudgetServed[rung] != st.OK || st.OK == 0 {
		t.Errorf("BudgetServed = %v with OK = %d, want every answer at rung %d", st.BudgetServed, st.OK, rung)
	}
}

// TestOversizedBodyGets413 is the MaxBytesReader regression test: a
// body past the 1 MiB cap must answer 413, not a generic 400.
func TestOversizedBodyGets413(t *testing.T) {
	testPlan(t)
	s := newTestServer(t, nil)
	s.startScheduler()

	big := make([]byte, 0, maxBodyBytes+1<<16)
	big = append(big, `{"image":[`...)
	for len(big) <= maxBodyBytes {
		big = append(big, `0.123456789,`...)
	}
	big = append(big, `0]}`...)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got %d (%s), want 413", rec.Code, rec.Body.String())
	}
}

// TestNegativeDeadlineRejected is the deadline_ms regression test: a
// negative deadline is a client bug and must answer 400, not silently
// fall back to the server default.
func TestNegativeDeadlineRejected(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, nil)
	s.startScheduler()

	raw, err := json.Marshal(classifyRequest{Image: images[0], DeadlineMs: -50})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(raw)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative deadline got %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "deadline_ms") {
		t.Errorf("error body %q does not name deadline_ms", rec.Body.String())
	}
}

// TestQueueWaitHistogramCoversDeadlines is the histogram-range
// regression test: a near-deadline wait (far past the old 8*MaxDelay
// bound) must land in a finite bucket, not the overflow tail.
func TestQueueWaitHistogramCoversDeadlines(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, func(c *Config) { c.MaxDeadline = time.Second })

	r, err := s.submit(images[0], time.Now().Add(800*time.Millisecond), rung)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // wait in queue far past 8*MaxDelay
	s.startScheduler()
	if resp := <-r.done; resp.err != nil {
		t.Fatal(resp.err)
	}
	snap := s.met.queueWait.Snapshot()
	if snap.Total() != 1 {
		t.Fatalf("histogram holds %d observations, want 1", snap.Total())
	}
	var inBins int64
	for _, c := range snap.Counts {
		inBins += c
	}
	if inBins != 1 {
		t.Fatalf("near-deadline wait fell out of range: %d of 1 observations in finite bins (range [0, %gs))",
			inBins, snap.Max)
	}
	if snap.Max != s.cfg.MaxDeadline.Seconds() {
		t.Errorf("histogram max %g not ranged off MaxDeadline %g", snap.Max, s.cfg.MaxDeadline.Seconds())
	}
}

// TestQueueDepthGaugeBalance drives every admission outcome — served,
// shed, expired-in-queue, drain-flushed — and asserts the depth gauge
// returns to zero: each increment has exactly one decrement.
func TestQueueDepthGaugeBalance(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, func(c *Config) { c.QueueCap = 8 })

	long := time.Now().Add(5 * time.Second)
	short := time.Now().Add(20 * time.Millisecond)
	var reqs []*request
	for i := 0; i < 6; i++ { // will be served or drain-flushed
		r, err := s.submit(images[i%len(images)], long, rung)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for i := 0; i < 2; i++ { // will expire in queue
		r, err := s.submit(images[i], short, rung)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	if _, err := s.submit(images[0], long, rung); !errors.Is(err, ErrQueueFull) { // shed
		t.Fatalf("overflow admission returned %v, want ErrQueueFull", err)
	}
	time.Sleep(40 * time.Millisecond) // let the short deadlines lapse queued

	s.startScheduler()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var ok, expired int
	for _, r := range reqs {
		resp := <-r.done
		switch {
		case resp.err == nil:
			ok++
		case errors.Is(resp.err, context.DeadlineExceeded):
			expired++
		default:
			t.Fatalf("unexpected outcome: %v", resp.err)
		}
	}
	st := s.Stats()
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after mixed workload, want 0", st.QueueDepth)
	}
	if ok != 6 || expired != 2 {
		t.Errorf("outcomes ok=%d expired=%d, want 6, 2", ok, expired)
	}
	if st.OK != 6 || st.Timeout != 2 || st.Shed != 1 {
		t.Errorf("stats %+v, want OK=6 Timeout=2 Shed=1", st)
	}
}
