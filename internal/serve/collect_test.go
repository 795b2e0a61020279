package serve

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"
)

// closeCounts reads trq_serve_batch_close_total by reason.
func closeCounts(s *Server) map[string]int64 {
	m := make(map[string]int64, numCloseReasons)
	for why, name := range closeReasonNames {
		m[name] = s.met.batchClose[why].Value()
	}
	return m
}

// TestBatchCloseReasons pins the batch-close counter on single-budget
// traffic: 16 pre-queued requests cut two full batches, a lone request
// is cut by the MaxDelay window, and other_budget never fires. The
// counts appear in the Prometheus exposition with their help line.
func TestBatchCloseReasons(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, nil) // MaxBatch 8, MaxDelay 1 ms

	deadline := time.Now().Add(5 * time.Second)
	var reqs []*request
	for i := 0; i < 16; i++ {
		r, err := s.submit(images[i%len(images)], deadline, rung)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs = append(reqs, r)
	}
	s.startScheduler()
	defer s.Drain(context.Background())
	for i, r := range reqs {
		if resp := <-r.done; resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
	}
	if got := closeCounts(s); got["full"] != 2 || got["window"] != 0 || got["other_budget"] != 0 {
		t.Fatalf("after 16 pre-queued requests: closes %v, want full=2 and nothing else", got)
	}

	lone, err := s.submit(images[0], deadline, rung)
	if err != nil {
		t.Fatal(err)
	}
	if resp := <-lone.done; resp.err != nil || resp.batch != 1 {
		t.Fatalf("lone request: batch %d, err %v; want a batch of 1", resp.batch, resp.err)
	}
	want := map[string]int64{"full": 2, "window": 1, "other_budget": 0, "drain": 0}
	if got := closeCounts(s); !maps.Equal(got, want) {
		t.Errorf("closes %v, want %v", got, want)
	}

	var text strings.Builder
	if err := s.cfg.Obs.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	exposed := []string{"# HELP trq_serve_batch_close_total "}
	for reason, n := range want {
		exposed = append(exposed, fmt.Sprintf("trq_serve_batch_close_total{reason=%q} %d", reason, n))
	}
	for _, line := range exposed {
		if !strings.Contains(text.String(), line) {
			t.Errorf("/metrics exposition lacks %q", line)
		}
	}
}

// TestCollectYieldsToOtherBudget pins the work-conserving window: with
// a request at another budget parked on the worker, the batch under
// construction stops waiting for MaxDelay and dispatches what it holds.
// One worker and a 5 s window make the old behaviour (hold the budget-12
// batch open for the full window while the budget-4 request waits)
// impossible to miss.
func TestCollectYieldsToOtherBudget(t *testing.T) {
	_, images := testFamily(t)
	const window = 5 * time.Second
	s := newFamilyServer(t, func(c *Config) {
		c.Workers = 1
		c.MaxDelay = window
	})

	deadline := time.Now().Add(3 * window)
	hi, err := s.submit(images[0], deadline, 12)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := s.submit(images[1], deadline, 4)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s.startScheduler()

	resp := <-hi.done
	if took := time.Since(start); took > window/5 {
		t.Errorf("budget-12 request answered after %v; the parked budget-4 request should have cut the %v window short",
			took, window)
	}
	if resp.err != nil || resp.budget != 12 || resp.batch != 1 {
		t.Fatalf("budget-12 request: budget %d, batch %d, err %v; want a batch of 1 at budget 12",
			resp.budget, resp.batch, resp.err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*window)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp = <-lo.done
	if resp.err != nil || resp.budget != 4 || resp.batch != 1 {
		t.Fatalf("budget-4 request: budget %d, batch %d, err %v; want a batch of 1 at budget 4",
			resp.budget, resp.batch, resp.err)
	}
	got := closeCounts(s)
	if got["other_budget"] < 1 {
		t.Errorf("closes %v, want other_budget >= 1", got)
	}
	if got["window"] != 0 || got["drain"] != 1 {
		t.Errorf("closes %v, want window=0 and drain=1 (the budget-4 batch is cut by Drain)", got)
	}
}

// TestCollectWindowHoldsForOneBudget pins the unchanged single-budget
// window: with nothing parked, a batch holding one request waits for a
// second that arrives inside MaxDelay, so both ride one dispatch. The
// serve-soak batching gate relies on this.
func TestCollectWindowHoldsForOneBudget(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, func(c *Config) {
		c.Workers = 1
		c.MaxDelay = 300 * time.Millisecond
	})
	defer s.Drain(context.Background())

	deadline := time.Now().Add(5 * time.Second)
	first, err := s.submit(images[0], deadline, 12)
	if err != nil {
		t.Fatal(err)
	}
	s.startScheduler()
	time.Sleep(20 * time.Millisecond)
	second, err := s.submit(images[1], deadline, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*request{first, second} {
		resp := <-r.done
		if resp.err != nil || resp.batch != 2 {
			t.Errorf("request %d: batch %d, err %v; want both in one batch of 2", i, resp.batch, resp.err)
		}
	}
	if got := closeCounts(s); got["window"] != 1 || got["other_budget"] != 0 {
		t.Errorf("closes %v, want the one batch cut by its window", got)
	}
}
