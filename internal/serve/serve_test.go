package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// rung is the budget of the one-rung family newTestServer serves: the
// paper's operating point, the single-budget server.
const rung = demoplan.QuantGroupBudget

// The demo MLP is trained once, compiled as a one-rung family, and
// shared: plans are safe for concurrent use (the scratch arena is
// pooled per inference).
var (
	rungOnce   sync.Once
	testRungV  *intinfer.Family
	testImages [][]float32
	rungErr    error
)

func testRung(t *testing.T) (*intinfer.Family, [][]float32) {
	t.Helper()
	rungOnce.Do(func() {
		fam, test, err := demoplan.MLPFamily(obs.New(), []int{rung})
		if err != nil {
			rungErr = err
			return
		}
		testRungV, testImages = fam, test.Images
	})
	if rungErr != nil {
		t.Fatalf("building the one-rung demo family: %v", rungErr)
	}
	return testRungV, testImages
}

// testPlan returns the plan of newTestServer's one rung, the sequential
// reference its served answers are held to.
func testPlan(t *testing.T) (*intinfer.Plan, [][]float32) {
	t.Helper()
	fam, images := testRung(t)
	plan, _ := fam.Plan(rung)
	return plan, images
}

// newTestServer serves the one-rung family with one worker, so tests
// that count batches see one scheduler cut them.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	fam, _ := testRung(t)
	cfg := Config{Family: fam, MaxBatch: 8, MaxDelay: time.Millisecond,
		QueueCap: 128, BatchWorkers: 1, Workers: 1, DefaultDeadline: 5 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBatchedServingMatchesSequential is the equivalence test in its
// deterministic form: 16 requests are queued before the scheduler
// starts, so it must cut exactly two full batches of 8, and every
// answer must be bit-identical to a sequential Classify of the same
// image.
func TestBatchedServingMatchesSequential(t *testing.T) {
	plan, images := testPlan(t)
	s := newTestServer(t, nil)

	const n = 16
	want := make([]int, n)
	for i := range want {
		cls, err := plan.Classify(images[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cls
	}

	reqs := make([]*request, n)
	deadline := time.Now().Add(5 * time.Second)
	for i := range reqs {
		r, err := s.submit(images[i], deadline, rung)
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
		if resp.class != want[i] {
			t.Errorf("request %d: served class %d, sequential Classify %d", i, resp.class, want[i])
		}
		if resp.batch != s.cfg.MaxBatch {
			t.Errorf("request %d rode a batch of %d, want full batch of %d", i, resp.batch, s.cfg.MaxBatch)
		}
	}
	st := s.Stats()
	if st.Batches != 2 || st.BatchImages != n {
		t.Errorf("stats: %d batches / %d images, want 2 / %d", st.Batches, st.BatchImages, n)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after all dispatches, want 0", st.QueueDepth)
	}
}

// TestConcurrentClassifyMatchesSequential hammers Classify from many
// goroutines and checks the batched answers stay bit-identical to the
// sequential path — the micro-batching must be invisible to clients.
func TestConcurrentClassifyMatchesSequential(t *testing.T) {
	plan, images := testPlan(t)
	s := newTestServer(t, nil)
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

	got := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Classify(context.Background(), images[i])
			got[i], errs[i] = res.Class, err
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("image %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("image %d: served %d, sequential %d", i, got[i], want[i])
		}
	}
	if st := s.Stats(); st.OK != int64(n) || st.BatchImages != int64(n) {
		t.Errorf("stats %+v, want OK=%d BatchImages=%d", st, n, n)
	}
}

// TestQueueFullSheds pins admission control: with the scheduler held
// off, the queue fills deterministically and the next request sheds —
// ErrQueueFull in-process, 429 with a Retry-After hint over HTTP.
func TestQueueFullSheds(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, func(c *Config) { c.QueueCap = 2 })

	deadline := time.Now().Add(time.Second)
	for i := 0; i < 2; i++ {
		if _, err := s.submit(images[0], deadline, rung); err != nil {
			t.Fatalf("admission %d refused: %v", i, err)
		}
	}
	if _, err := s.submit(images[0], deadline, rung); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow admission returned %v, want ErrQueueFull", err)
	}

	body, err := json.Marshal(classifyRequest{Image: images[0]})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed request got %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After hint")
	}
	if st := s.Stats(); st.Shed != 2 {
		t.Errorf("shed counter %d, want 2", st.Shed)
	}
}

// TestExpiredInQueueGets504WithoutBatchSlot pins the deadline rule: a
// request that expires while queued is answered DeadlineExceeded and
// never occupies a batch slot, while a live co-queued request is still
// served — the dispatched batch holds one image, not two.
func TestExpiredInQueueGets504WithoutBatchSlot(t *testing.T) {
	_, images := testPlan(t)
	// A long MaxDelay parks both requests in the collect window until
	// the short deadline has certainly lapsed.
	s := newTestServer(t, func(c *Config) { c.MaxDelay = 300 * time.Millisecond })

	expired, err := s.submit(images[0], time.Now().Add(20*time.Millisecond), rung)
	if err != nil {
		t.Fatal(err)
	}
	live, err := s.submit(images[1], time.Now().Add(5*time.Second), rung)
	if err != nil {
		t.Fatal(err)
	}
	s.startScheduler()

	if resp := <-expired.done; !errors.Is(resp.err, context.DeadlineExceeded) {
		t.Fatalf("expired request returned %v, want DeadlineExceeded", resp.err)
	}
	resp := <-live.done
	if resp.err != nil {
		t.Fatalf("live request failed: %v", resp.err)
	}
	if resp.batch != 1 {
		t.Errorf("live request rode a batch of %d; the expired request occupied a slot", resp.batch)
	}
	st := s.Stats()
	if st.Timeout != 1 || st.OK != 1 || st.Batches != 1 || st.BatchImages != 1 {
		t.Errorf("stats %+v, want Timeout=1 OK=1 Batches=1 BatchImages=1", st)
	}
}

// TestDrainFlushesQueueThenRejects pins graceful drain: every request
// admitted before Drain is answered, admission afterwards returns
// ErrDraining (503 over HTTP), and a second Drain is a no-op.
func TestDrainFlushesQueueThenRejects(t *testing.T) {
	plan, images := testPlan(t)
	s := newTestServer(t, nil)

	const n = 5
	want := make([]int, n)
	reqs := make([]*request, n)
	deadline := time.Now().Add(5 * time.Second)
	for i := range reqs {
		cls, err := plan.Classify(images[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cls
		if reqs[i], err = s.submit(images[i], deadline, rung); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	s.startScheduler()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, r := range reqs {
		resp := <-r.done
		if resp.err != nil {
			t.Errorf("queued request %d dropped during drain: %v", i, resp.err)
		} else if resp.class != want[i] {
			t.Errorf("request %d: drained class %d, want %d", i, resp.class, want[i])
		}
	}

	if _, err := s.submit(images[0], deadline, rung); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain admission returned %v, want ErrDraining", err)
	}
	body, err := json.Marshal(classifyRequest{Image: images[0]})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain HTTP request got %d, want 503", rec.Code)
	}

	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestAdmitDispatchDrainRace is the -race hammer: clients classify
// concurrently while two goroutines race Drain against them. Every
// request must terminate with one of the protocol's outcomes.
func TestAdmitDispatchDrainRace(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, func(c *Config) { c.QueueCap = 16 })
	s.startScheduler()

	const clients, perClient = 8, 40
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, err := s.Classify(ctx, images[(c+i)%len(images)])
				cancel()
				switch {
				case err == nil:
				case errors.Is(err, ErrQueueFull):
				case errors.Is(err, ErrDraining):
				case errors.Is(err, context.DeadlineExceeded):
				default:
					errCh <- fmt.Errorf("client %d request %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(2 * time.Millisecond)
			if err := s.Drain(drainCtx); err != nil {
				errCh <- fmt.Errorf("drain: %w", err)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestHTTPEndToEnd boots the real listener: classify over HTTP matches
// the sequential path, bad inputs get 400, /healthz answers, /metrics
// exposes the serving families, and Drain tears the listener down.
func TestHTTPEndToEnd(t *testing.T) {
	plan, images := testPlan(t)
	s := newTestServer(t, nil)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr

	if s.httpSrv.ReadHeaderTimeout <= 0 || s.httpSrv.IdleTimeout <= 0 {
		t.Error("serving http.Server lacks connection timeouts (Slowloris)")
	}

	want, err := plan.Classify(images[0])
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(classifyRequest{Image: images[0], DeadlineMs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	code, data := post(t, base+"/v1/classify", body)
	if code != http.StatusOK {
		t.Fatalf("classify got %d: %s", code, data)
	}
	var out classifyResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("classify response is not JSON: %v", err)
	}
	if out.Class != want {
		t.Errorf("served class %d, sequential %d", out.Class, want)
	}
	if out.BatchSize < 1 {
		t.Errorf("batch_size %d, want >= 1", out.BatchSize)
	}

	if code, data = post(t, base+"/v1/classify", []byte(`{"image":[1,2,3]}`)); code != http.StatusBadRequest {
		t.Errorf("short image got %d (%s), want 400", code, data)
	}
	if code, data = post(t, base+"/v1/classify", []byte("not json")); code != http.StatusBadRequest {
		t.Errorf("bad body got %d (%s), want 400", code, data)
	}

	code, _ = get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz got %d", code)
	}
	code, metrics := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics got %d", code)
	}
	for _, fam := range []string{
		`trq_serve_requests_total{status="ok"} 1`,
		"trq_serve_batches_total 1",
		"trq_serve_batch_size_count 1",
		"trq_serve_queue_wait_seconds_count 1",
		"trq_serve_request_latency_seconds_count",
	} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still answering after Drain")
	}
}

func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}
