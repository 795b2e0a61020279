package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/intinfer"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
)

// latencyHistBins mirror the serve package's request-latency histogram
// geometry; resolving the same (name, range) returns the server's own
// instrument, so the SLO quantile reads the histogram the handlers fed.
const (
	latencyHistName = "trq_serve_request_latency_seconds"
	latencyHistMax  = 0.25
	latencyHistBins = 50
)

// runSmoke is the CI path (`make serve-smoke`): boot the real listener
// on an ephemeral port, classify one image over HTTP, scrape /metrics
// for the serving families, hot-swap the model through /v1/reload,
// classify again, drain, exit. Everything the SIGTERM path exercises
// except the signal itself.
func runSmoke(s *serve.Server, images [][]float32, cfg config) error {
	if err := s.Start("127.0.0.1:0"); err != nil {
		return err
	}
	base := "http://" + s.Addr
	fmt.Println("trserve: smoke on", base)

	body, err := json.Marshal(map[string]any{"image": images[0], "deadline_ms": 2000})
	if err != nil {
		return err
	}
	code, data, err := httpPost(http.DefaultClient, base+"/v1/classify", body)
	if err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("classify returned %d: %s", code, data)
	}
	var resp struct {
		Class     int `json:"class"`
		BatchSize int `json:"batch_size"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("classify response: %w", err)
	}
	fmt.Printf("trserve: classified as %d (batch_size=%d)\n", resp.Class, resp.BatchSize)

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	mdata, err := io.ReadAll(mresp.Body)
	if cerr := mresp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	for _, fam := range []string{"trq_serve_requests_total", "trq_serve_batches_total",
		"trq_serve_queue_depth", "trq_serve_worker_busy", "trq_serve_inflight_batches"} {
		if !strings.Contains(string(mdata), fam) {
			return fmt.Errorf("/metrics is missing the %s family", fam)
		}
	}
	fmt.Println("trserve: /metrics exposes the serving families")

	// Issue one request at the bottom rung (what the degradation policy
	// steps down to; the only rung of a single-budget server) and hold
	// the server to its echo contract.
	low := s.Budgets()[0]
	lowBody, err := json.Marshal(map[string]any{"image": images[0], "deadline_ms": 2000, "budget": low})
	if err != nil {
		return err
	}
	code, data, err = httpPost(http.DefaultClient, base+"/v1/classify", lowBody)
	if err != nil {
		return fmt.Errorf("budget classify: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("budget classify returned %d: %s", code, data)
	}
	var bresp struct {
		Class  int `json:"class"`
		Budget int `json:"budget"`
	}
	if err := json.Unmarshal(data, &bresp); err != nil {
		return fmt.Errorf("budget classify response: %w", err)
	}
	if bresp.Budget != low {
		return fmt.Errorf("budget classify echoed budget %d, want %d", bresp.Budget, low)
	}
	fmt.Printf("trserve: bottom-rung classify ok (budget=%d class=%d)\n", bresp.Budget, bresp.Class)

	// Hot-swap: bump the artifact's version label on disk, POST
	// /v1/reload, and confirm the serving version followed and the
	// swapped model still classifies.
	if cfg.rewrite != nil {
		const want = "smoke-reload"
		if err := cfg.rewrite(want); err != nil {
			return fmt.Errorf("artifact rewrite: %w", err)
		}
		code, data, err := httpPost(http.DefaultClient, base+"/v1/reload", nil)
		if err != nil {
			return fmt.Errorf("reload: %w", err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("reload returned %d: %s", code, data)
		}
		var rresp struct {
			ModelVersion string `json:"model_version"`
		}
		if err := json.Unmarshal(data, &rresp); err != nil {
			return fmt.Errorf("reload response: %w", err)
		}
		if rresp.ModelVersion != want {
			return fmt.Errorf("reload swapped to version %q, want %q", rresp.ModelVersion, want)
		}
		code, data, err = httpPost(http.DefaultClient, base+"/v1/classify", body)
		if err != nil {
			return fmt.Errorf("classify after reload: %w", err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("classify after reload returned %d: %s", code, data)
		}
		fmt.Printf("trserve: hot-swap reload ok (version %s)\n", want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("trserve: smoke ok")
	return nil
}

// drive runs the closed-loop client fleet against a started server for
// cfg.duration and folds the client-side outcomes with the scheduler's
// own counters into a ServeResults.
func drive(s *serve.Server, images [][]float32, cfg config) (report.ServeResults, error) {
	url := "http://" + s.Addr + "/v1/classify"
	// Pre-marshal one body per image; the clients round-robin over them.
	bodies := make([][]byte, len(images))
	for i, img := range images {
		b, err := json.Marshal(map[string]any{"image": img, "deadline_ms": cfg.loadDeadline.Milliseconds()})
		if err != nil {
			return report.ServeResults{}, err
		}
		bodies[i] = b
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.clients * 2,
		MaxIdleConnsPerHost: cfg.clients * 2,
	}}

	var ok, shed, timeout, failed atomic.Int64
	lats := make([][]int64, cfg.clients) // per-client, merged after the run
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	stopAt := time.Now().Add(cfg.duration)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(stopAt); i++ {
				start := time.Now()
				code, _, err := httpPost(client, url, bodies[i%len(bodies)])
				lat := time.Since(start).Microseconds()
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, &err)
					continue
				}
				switch code {
				case http.StatusOK:
					ok.Add(1)
					lats[c] = append(lats[c], lat)
				case http.StatusTooManyRequests:
					shed.Add(1)
				case http.StatusGatewayTimeout:
					timeout.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	st := s.Stats()
	total := ok.Load() + shed.Load() + timeout.Load() + failed.Load()
	res := report.ServeResults{
		Requests: total, OK: ok.Load(), Shed: shed.Load(),
		Timeout: timeout.Load(), Errors: failed.Load(),
		Throughput:    float64(total) / cfg.duration.Seconds(),
		P50Us:         percentile(all, 0.50),
		P90Us:         percentile(all, 0.90),
		P99Us:         percentile(all, 0.99),
		Batches:       st.Batches,
		BatchImages:   st.BatchImages,
		QueueDepthEnd: st.QueueDepth,
		Degraded:      st.Degraded,
	}
	if total > 0 {
		res.ShedRate = float64(res.Shed) / float64(total)
		res.DegradedRate = float64(res.Degraded) / float64(total)
	}
	if len(all) > 0 {
		res.MaxUs = all[len(all)-1]
	}
	if st.Batches > 0 {
		res.AvgBatch = float64(st.BatchImages) / float64(st.Batches)
	}
	res.BudgetServed = make(map[string]int64, len(st.BudgetServed))
	for b, n := range st.BudgetServed {
		res.BudgetServed[strconv.Itoa(b)] = n
	}
	if p := firstErr.Load(); p != nil {
		fmt.Println("trserve: first transport error:", *p)
	}
	return res, nil
}

// runPhase boots a server from mk against a fresh obs registry, drives
// the closed-loop load, drains, and stamps the server-side p99 (the
// request-latency histogram's upper-bound quantile) into the results.
// When cfg.sloP99 is set the phase is held to it: a p99 bound above the
// SLO — or a tail the histogram cannot bound at all — is an error,
// returned alongside the measured results so the caller can still
// record them.
func runPhase(name string, mk func(reg *obs.Registry) (*serve.Server, error),
	images [][]float32, cfg config) (report.ServeResults, error) {
	reg := obs.New()
	s, err := mk(reg)
	if err != nil {
		return report.ServeResults{}, err
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		return report.ServeResults{}, err
	}
	fmt.Printf("trserve: selfload[%s] on %s: %d clients for %v\n",
		name, s.Addr, cfg.clients, cfg.duration)
	res, err := drive(s, images, cfg)
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return res, fmt.Errorf("drain: %w", err)
	}

	q99 := reg.Histogram(latencyHistName, 0, latencyHistMax, latencyHistBins).Quantile(0.99)
	switch {
	case math.IsNaN(q99): // no handled requests at all
		res.ServerP99Us = 0
	case math.IsInf(q99, 1):
		res.ServerP99Us = -1
	default:
		res.ServerP99Us = int64(q99 * 1e6)
	}
	printPhase(name, res)

	if cfg.sloP99 > 0 {
		switch {
		case math.IsNaN(q99):
			return res, fmt.Errorf("phase %s: no requests completed; cannot certify the p99 SLO", name)
		case math.IsInf(q99, 1):
			return res, fmt.Errorf("phase %s: p99 escaped the %gs latency histogram range; SLO %v not certified",
				name, latencyHistMax, cfg.sloP99)
		case q99 > cfg.sloP99.Seconds():
			return res, fmt.Errorf("phase %s: server p99 %.1fms violates the %v SLO",
				name, q99*1e3, cfg.sloP99)
		}
	}
	return res, nil
}

// runHotswapPhase is the zero-downtime gate: drive the same closed-loop
// load as a sweep phase while a swapper goroutine rewrites the model
// artifact under a bumped version label and hot-swaps it through
// Server.Reload every cfg.swapEvery. At least two swaps must land,
// every reload must succeed, and no request may fail with anything but
// the shed/timeout outcomes the steady-state phases also allow —
// Errors > 0 means a swap dropped a request.
func runHotswapPhase(mk func(reg *obs.Registry) (*serve.Server, error),
	images [][]float32, cfg config) (report.ServeResults, error) {
	reg := obs.New()
	s, err := mk(reg)
	if err != nil {
		return report.ServeResults{}, err
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		return report.ServeResults{}, err
	}
	fmt.Printf("trserve: selfload[hotswap] on %s: %d clients for %v, swapping every %v\n",
		s.Addr, cfg.clients, cfg.duration, cfg.swapEvery)

	stop := make(chan struct{})
	swapDone := make(chan error, 1)
	var swaps atomic.Int64
	go func() {
		for i := 1; ; i++ {
			select {
			case <-stop:
				swapDone <- nil
				return
			case <-time.After(cfg.swapEvery):
			}
			version := fmt.Sprintf("swap-%d", i)
			if err := cfg.rewrite(version); err != nil {
				swapDone <- fmt.Errorf("artifact rewrite %s: %w", version, err)
				return
			}
			if _, err := s.Reload(context.Background()); err != nil {
				swapDone <- fmt.Errorf("reload %s: %w", version, err)
				return
			}
			swaps.Add(1)
		}
	}()

	res, err := drive(s, images, cfg)
	close(stop)
	if serr := <-swapDone; err == nil {
		err = serr
	}
	res.Swaps = swaps.Load()
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return res, fmt.Errorf("drain: %w", err)
	}
	printPhase("hotswap", res)
	fmt.Printf("%-12s %d hot-swaps landed mid-load\n", "", res.Swaps)
	switch {
	case res.Swaps < 2:
		return res, fmt.Errorf("hotswap phase landed %d swaps in %v; need >= 2 to certify zero-downtime reload",
			res.Swaps, cfg.duration)
	case res.Errors > 0:
		return res, fmt.Errorf("hotswap phase dropped %d requests across %d swaps; reload is not zero-downtime",
			res.Errors, res.Swaps)
	}
	return res, nil
}

func printPhase(name string, res report.ServeResults) {
	fmt.Printf("%-12s %d requests (%.0f req/s): %d ok, %d shed (%.1f%%), %d timeout, %d error, %d degraded\n",
		name+":", res.Requests, res.Throughput, res.OK, res.Shed, 100*res.ShedRate,
		res.Timeout, res.Errors, res.Degraded)
	fmt.Printf("%-12s p50 %dus  p90 %dus  p99 %dus (server p99 %dus)  max %dus  |  %d batches, avg %.2f\n",
		"", res.P50Us, res.P90Us, res.P99Us, res.ServerP99Us, res.MaxUs, res.Batches, res.AvgBatch)
}

// serveIdentity is the comparable subset of a serve report that must
// match for an overwrite to count as a re-run of the same experiment —
// the trbench clobber rule ported to the serving path. The config
// carries slices (budget ladder, worker sweep), so identities compare
// by canonical JSON rather than struct equality.
type serveIdentity struct {
	Identity report.Identity    `json:"identity"`
	Config   report.ServeConfig `json:"config"`
}

func identityJSON(rep *report.ServeReport) ([]byte, error) {
	return json.Marshal(serveIdentity{Identity: rep.Platform.Identity(), Config: rep.Config})
}

// checkServeOverwrite enforces the clobber rule on the serve report:
// overwriting an existing results file is fine when it was produced by
// the same config on the same platform (a refresh), an error otherwise
// unless forced.
func checkServeOverwrite(outPath string, rep *report.ServeReport, force bool) error {
	data, err := os.ReadFile(outPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if force {
		return nil
	}
	var old report.ServeReport
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s exists but is not a serve report (%v); use -force to overwrite", outPath, err)
	}
	oldID, err := identityJSON(&old)
	if err != nil {
		return err
	}
	newID, err := identityJSON(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(oldID, newID) {
		return fmt.Errorf("%s was written with a different config (%s vs %s); use -force to overwrite",
			outPath, oldID, newID)
	}
	return nil
}

func writeServeReport(rep report.ServeReport, cfg config) error {
	if err := checkServeOverwrite(cfg.out, &rep, cfg.force); err != nil {
		return err
	}
	if dir := filepath.Dir(cfg.out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", cfg.out)
	return nil
}

// applyScaling computes each point's throughput speedup against the
// 1-worker point and enforces the multi-core scaling gate: on a box
// with GOMAXPROCS >= 4 a sweep covering workers 1 and 4 must show at
// least 2.5x request throughput at 4 workers — below that the worker
// pool is not actually using the cores. On narrower boxes (or sweeps)
// the curve is recorded but not gated.
func applyScaling(points []report.ScalingPoint) error {
	var base float64
	for _, p := range points {
		if p.Workers == 1 {
			base = p.Results.Throughput
		}
	}
	if base <= 0 {
		return nil
	}
	var at4 float64
	for i := range points {
		points[i].Speedup = points[i].Results.Throughput / base
		if points[i].Workers == 4 {
			at4 = points[i].Speedup
		}
	}
	if runtime.GOMAXPROCS(0) >= 4 && at4 > 0 && at4 < 2.5 {
		return fmt.Errorf("scaling gate: %d-core box served only %.2fx throughput at 4 workers (want >= 2.5x)",
			runtime.GOMAXPROCS(0), at4)
	}
	return nil
}

// runSelfload is the fleet-scale soak: for every pool size in cfg.sweep
// it runs the degrade-before-shed A/B — a strict control that sheds at
// the watermark, then the same offered load with the degradation band in
// front of a doubled queue — asserting the phase SLO throughout, and
// records the whole strict/degrade scaling curve. The report's headline
// Results/StrictBaseline carry the widest pool (its worker count is the
// config's headline), and it is written before any failed phase SLO or
// scaling gate is reported, so the numbers that failed are always on
// disk.
func runSelfload(fam *intinfer.Family, images [][]float32, cfg config) error {
	watermark := cfg.watermark
	if watermark <= 0 {
		watermark = cfg.queueCap
	}
	mk := func(workers, qcap, mark, low int) func(reg *obs.Registry) (*serve.Server, error) {
		return func(reg *obs.Registry) (*serve.Server, error) {
			return serve.New(serve.Config{Family: fam, MaxBatch: cfg.maxBatch,
				MaxDelay: cfg.maxDelay, QueueCap: qcap,
				BatchWorkers: cfg.batchWorkers, Workers: workers,
				DefaultDeadline: cfg.deadline, MaxDeadline: cfg.maxDeadline,
				DegradeWatermark: mark, DegradeLowWatermark: low,
				ModelVersion: cfg.bootVersion, Reload: cfg.reload,
				Obs: reg})
		}
	}

	points := make([]report.ScalingPoint, 0, len(cfg.sweep))
	var phaseErr error
	keep := func(err error) {
		if err != nil && phaseErr == nil {
			phaseErr = err
		}
	}
	for _, w := range cfg.sweep {
		// Strict control: shed at the watermark, degradation never engages
		// (outstanding depth counts parked, collecting, and in-flight
		// requests beyond the queue cap, so the disabling watermark must be
		// unreachable, not just past the cap).
		strict, err := runPhase(fmt.Sprintf("w=%d strict", w),
			mk(w, watermark, 1<<30, 0), images, cfg)
		keep(err)
		// Degrade phase: the control's shed point becomes the degrade
		// watermark, with queue headroom behind it before the hard cap.
		degrade, err := runPhase(fmt.Sprintf("w=%d degrade", w),
			mk(w, 2*watermark, watermark, watermark/2), images, cfg)
		keep(err)
		strictCopy := strict
		points = append(points, report.ScalingPoint{Workers: w,
			Results: degrade, StrictBaseline: &strictCopy})
	}
	gateErr := applyScaling(points)

	// Zero-downtime phase: the widest pool's degrade configuration
	// again, hot-swapping the artifact mid-load.
	var hot *report.ServeResults
	if cfg.rewrite != nil {
		w := cfg.sweep[len(cfg.sweep)-1]
		res, err := runHotswapPhase(mk(w, 2*watermark, watermark, watermark/2), images, cfg)
		keep(err)
		hot = &res
	}

	last := points[len(points)-1]
	rep := report.ServeReport{
		Platform: report.NewPlatform(cfg.gitRev),
		Config: report.ServeConfig{Model: cfg.model, MaxBatch: cfg.maxBatch,
			MaxDelayUs: cfg.maxDelay.Microseconds(), QueueCap: 2 * watermark,
			BatchWorkers: cfg.batchWorkers, Clients: cfg.clients,
			Workers: cfg.sweep[len(cfg.sweep)-1], WorkersSweep: cfg.sweep,
			SLOP99Ms: cfg.sloP99.Milliseconds(), DurationMs: cfg.duration.Milliseconds(),
			DeadlineMs: cfg.loadDeadline.Milliseconds(),
			Budgets:    fam.Budgets(), DegradeWatermark: watermark},
		Results:        last.Results,
		StrictBaseline: last.StrictBaseline,
		Scaling:        points,
		HotSwap:        hot,
	}
	printScaling(points)
	fmt.Printf("%-12s shed %.1f%% -> %.1f%%, degraded %.1f%% of admissions (widest pool)\n",
		"policy:", 100*last.StrictBaseline.ShedRate, 100*last.Results.ShedRate,
		100*last.Results.DegradedRate)
	if err := writeServeReport(rep, cfg); err != nil {
		return err
	}
	if phaseErr != nil {
		return phaseErr
	}
	if gateErr != nil {
		return gateErr
	}
	if slices.Contains(cfg.sweep, 1) {
		for _, p := range points {
			if p.Workers == 1 && p.Results.AvgBatch < 2 {
				return fmt.Errorf("selfload averaged %.2f images/batch at 1 worker; the scheduler is not batching under load", p.Results.AvgBatch)
			}
		}
	}
	return nil
}

func printScaling(points []report.ScalingPoint) {
	fmt.Printf("%-12s", "scaling:")
	for _, p := range points {
		fmt.Printf("  w=%d %.0f req/s (%.2fx)", p.Workers, p.Results.Throughput, p.Speedup)
	}
	fmt.Println()
}

// percentile reads the q-quantile from an ascending-sorted latency
// slice (nearest-rank); 0 when no samples survived.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// httpPost POSTs a JSON body and returns status plus the full response
// body, folding the Close error in as the read path's obs helpers do.
func httpPost(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}
