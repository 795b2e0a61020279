package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestWorkersDefaulting pins the Config.Workers contract, the one
// BatchWorkers has: below one (zero included) resolves to GOMAXPROCS,
// positive is taken as given.
func TestWorkersDefaulting(t *testing.T) {
	fam, _ := testRung(t)
	for _, tc := range []struct{ in, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{-1, runtime.GOMAXPROCS(0)},
		{1, 1},
		{3, 3},
	} {
		s, err := New(Config{Family: fam, Workers: tc.in})
		if err != nil {
			t.Fatal(err)
		}
		if s.cfg.Workers != tc.want {
			t.Errorf("Workers %d resolved to %d, want %d", tc.in, s.cfg.Workers, tc.want)
		}
		if len(s.met.workerBusy) != tc.want || len(s.met.workerBatches) != tc.want {
			t.Errorf("Workers %d: %d busy gauges / %d batch counters, want %d each",
				tc.in, len(s.met.workerBusy), len(s.met.workerBatches), tc.want)
		}
	}
}

// TestWorkerPoolMatchesSequential is the concurrent-equivalence test at
// W=4: many goroutines classify through a four-worker pool and every
// answer must stay bit-identical to the sequential path. Afterwards the
// cross-worker accounting must balance — depth, in-flight, and busy
// gauges at zero, per-worker batch counters summing to the total.
func TestWorkerPoolMatchesSequential(t *testing.T) {
	plan, images := testPlan(t)
	s := newTestServer(t, func(c *Config) {
		c.Workers = 4
		// Every round's requests are in flight at once; keep the queue
		// deep enough that none shed when race-mode slows the workers.
		c.QueueCap = 1024
	})
	s.startScheduler()

	n := len(images)
	want := make([]int, n)
	for i := range want {
		cls, err := plan.Classify(images[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cls
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make([]error, n*rounds)
	got := make([]int, n*rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(slot, img int) {
				defer wg.Done()
				res, err := s.Classify(context.Background(), images[img])
				got[slot], errs[slot] = res.Class, err
			}(r*n+i, i)
		}
	}
	wg.Wait()
	for slot := range got {
		if errs[slot] != nil {
			t.Fatalf("request %d: %v", slot, errs[slot])
		}
		if got[slot] != want[slot%n] {
			t.Errorf("request %d: served %d, sequential %d", slot, got[slot], want[slot%n])
		}
	}

	st := s.Stats()
	if st.OK != int64(n*rounds) || st.BatchImages != int64(n*rounds) {
		t.Errorf("stats %+v, want OK=BatchImages=%d", st, n*rounds)
	}
	if st.QueueDepth != 0 || st.InflightImages != 0 || st.InflightBatches != 0 || st.WorkersBusy != 0 {
		t.Errorf("accounting not balanced after quiesce: depth=%d inflight=%d/%d busy=%d",
			st.QueueDepth, st.InflightImages, st.InflightBatches, st.WorkersBusy)
	}
	var sum int64
	for _, b := range st.WorkerBatches {
		sum += b
	}
	if sum != st.Batches {
		t.Errorf("per-worker batch counters sum to %d, aggregate says %d", sum, st.Batches)
	}
}

// TestFamilyWorkerPoolServesRungsConcurrently drives a four-worker
// family server with concurrent requests across every ladder rung —
// different workers execute different rungs of the same family (aliased
// packed panels, one shared arena) at the same time — and checks each
// answer against that rung's serial Classify.
func TestFamilyWorkerPoolServesRungsConcurrently(t *testing.T) {
	fam, images := testFamily(t)
	s := newFamilyServer(t, func(c *Config) { c.Workers = 4 })
	s.startScheduler()

	budgets := fam.Budgets()
	const perRung = 16
	type key struct{ budget, img int }
	want := make(map[key]int)
	for _, b := range budgets {
		p, _ := fam.Plan(b)
		for i := 0; i < perRung; i++ {
			cls, err := p.Classify(images[i%len(images)])
			if err != nil {
				t.Fatal(err)
			}
			want[key{b, i}] = cls
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, len(budgets)*perRung)
	for _, b := range budgets {
		for i := 0; i < perRung; i++ {
			wg.Add(1)
			go func(b, i int) {
				defer wg.Done()
				res, err := s.ClassifyBudget(context.Background(), images[i%len(images)], b)
				if err != nil {
					errCh <- fmt.Errorf("budget %d request %d: %w", b, i, err)
					return
				}
				if res.Budget != b {
					errCh <- fmt.Errorf("budget %d request %d served at %d", b, i, res.Budget)
				}
				if res.Class != want[key{b, i}] {
					errCh <- fmt.Errorf("budget %d request %d: class %d, serial %d",
						b, i, res.Class, want[key{b, i}])
				}
			}(b, i)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := s.Stats()
	if st.OK != int64(len(budgets)*perRung) {
		t.Errorf("OK=%d, want %d", st.OK, len(budgets)*perRung)
	}
	if st.QueueDepth != 0 || st.InflightImages != 0 || st.WorkersBusy != 0 {
		t.Errorf("accounting not balanced: depth=%d inflight=%d busy=%d",
			st.QueueDepth, st.InflightImages, st.WorkersBusy)
	}
}

// TestDrainJoinsAllWorkersMidBatch pins multi-worker drain: with W=4
// workers mid-stream, Drain must flush every admitted request (ok or
// expired), never double-close, and leave every cross-worker gauge at
// zero across the ok/shed/expired outcome mix.
func TestDrainJoinsAllWorkersMidBatch(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, func(c *Config) {
		c.Workers = 4
		c.QueueCap = 8
		c.MaxBatch = 4
	})

	// Fill the queue before the workers start: five live requests, three
	// already expired (answered 504 without a batch slot), then overflow
	// two admissions into shed.
	deadline := time.Now().Add(5 * time.Second)
	expired := time.Now().Add(-time.Millisecond)
	var reqs []*request
	for i := 0; i < 8; i++ {
		d := deadline
		if i%3 == 0 {
			d = expired
		}
		r, err := s.submit(images[i%len(images)], d, rung)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs = append(reqs, r)
	}
	var shed int64
	for i := 0; i < 2; i++ {
		if _, err := s.submit(images[0], deadline, rung); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow admission returned %v, want ErrQueueFull", err)
		}
		shed++
	}

	s.startScheduler()
	// Two concurrent Drains: idempotent, no double-close of the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var dwg sync.WaitGroup
	for d := 0; d < 2; d++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
	}
	dwg.Wait()

	var ok, timedOut int64
	for i, r := range reqs {
		resp := <-r.done
		switch {
		case resp.err == nil:
			ok++
		case errors.Is(resp.err, context.DeadlineExceeded):
			timedOut++
		default:
			t.Errorf("request %d: unexpected outcome %v", i, resp.err)
		}
	}
	if ok != 5 || timedOut != 3 {
		t.Errorf("outcomes ok=%d timeout=%d, want 5/3", ok, timedOut)
	}

	st := s.Stats()
	if st.OK != ok || st.Timeout != timedOut || st.Shed != shed {
		t.Errorf("stats %+v disagree with outcomes ok=%d timeout=%d shed=%d", st, ok, timedOut, shed)
	}
	if st.QueueDepth != 0 || st.InflightImages != 0 || st.InflightBatches != 0 || st.WorkersBusy != 0 {
		t.Errorf("gauges not restored after drain: depth=%d inflight=%d/%d busy=%d",
			st.QueueDepth, st.InflightImages, st.InflightBatches, st.WorkersBusy)
	}

	// Drain again after completion: still a no-op, not a second close.
	if err := s.Drain(ctx); err != nil {
		t.Errorf("post-quiesce drain: %v", err)
	}
}

// TestDegradeWatermarkCountsInflight pins the cross-worker depth
// accounting: the degradation watermark reads queued + in-flight, so
// images executing inside busy workers engage the policy even when the
// queue itself is nearly empty — and a huge in-flight load still never
// sheds, because 429 remains reserved for a full queue.
func TestDegradeWatermarkCountsInflight(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, func(c *Config) {
		c.Workers = 4
		c.DegradeWatermark = 10
		c.DegradeLowWatermark = 2
	})

	// Simulate four busy workers holding 12 in-flight images; the queue
	// is empty. Admission must degrade — the committed latency is there
	// even though the queue alone says idle.
	s.inflight.Store(12)
	r, err := s.submit(images[0], time.Now().Add(5*time.Second), 12)
	if err != nil {
		t.Fatalf("admission with deep in-flight load refused: %v", err)
	}
	if !r.degraded || r.budget != 8 {
		t.Errorf("in-flight-only pressure did not degrade: budget %d degraded %v", r.budget, r.degraded)
	}

	// Hysteresis: dropping in-flight into the band (queue depth 1 +
	// inflight 4 = 5, between low 2 and high 10) holds the latch.
	s.inflight.Store(4)
	r2, err := s.submit(images[0], time.Now().Add(5*time.Second), 12)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.degraded {
		t.Error("in-band admission released the latch early")
	}

	// Below the low watermark (queue 2 + inflight 0 = 2 <= 2) the latch
	// disengages and budgets are honoured again.
	s.inflight.Store(0)
	r3, err := s.submit(images[0], time.Now().Add(5*time.Second), 12)
	if err != nil {
		t.Fatal(err)
	}
	if r3.degraded || r3.budget != 12 {
		t.Errorf("latch still engaged at low watermark: budget %d degraded %v", r3.budget, r3.degraded)
	}

	// In-flight pressure alone must never shed: 429 is reserved for a
	// full queue. (Queue holds 3 of 128; pretend every worker is buried.)
	s.inflight.Store(1 << 20)
	if _, err := s.submit(images[0], time.Now().Add(5*time.Second), 12); err != nil {
		t.Errorf("in-flight pressure shed an admission: %v (429 is for a full queue only)", err)
	}
	s.inflight.Store(0)

	s.startScheduler()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
