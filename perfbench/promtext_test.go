package main

import (
	"math"
	"strings"
	"testing"
)

const metricsBefore = `# HELP trq_serve_requests_total classification requests
# TYPE trq_serve_requests_total counter
trq_serve_requests_total{status="ok"} 100
trq_serve_requests_total{status="shed"} 0
trq_serve_batches_total 50
trq_serve_batch_images_total 100
trq_serve_request_latency_seconds_bucket{le="0.005"} 90
trq_serve_request_latency_seconds_sum 0.3
trq_serve_request_latency_seconds_count 100
trq_serve_queue_wait_seconds_sum 0.2
trq_serve_queue_wait_seconds_count 100
trq_serve_budget_served_total{budget="4"} 0
trq_serve_budget_served_total{budget="12"} 100
trq_intinfer_batch_images_total 100
trq_intinfer_step_latency_seconds_sum{step="fc1"} 0.01
trq_intinfer_step_latency_seconds_count{step="fc1"} 50
trq_intinfer_step_latency_seconds_sum{step="fc2"} 0.002
trq_intinfer_step_latency_seconds_count{step="fc2"} 50
trq_intinfer_dispatch_total{path="linear8"} 100
trq_artifact_loads_total{outcome="ok",format="trq"} 1
`

const metricsAfter = `trq_serve_requests_total{status="ok"} 1100
trq_serve_requests_total{status="shed"} 0
trq_serve_batches_total 550
trq_serve_batch_images_total 1100
trq_serve_request_latency_seconds_sum 3.3
trq_serve_request_latency_seconds_count 1100
trq_serve_queue_wait_seconds_sum 2.2
trq_serve_queue_wait_seconds_count 1100
trq_serve_budget_served_total{budget="4"} 250
trq_serve_budget_served_total{budget="12"} 850
trq_intinfer_batch_images_total 1100
trq_intinfer_step_latency_seconds_sum{step="fc1"} 0.11
trq_intinfer_step_latency_seconds_count{step="fc1"} 550
trq_intinfer_step_latency_seconds_sum{step="fc2"} 0.012
trq_intinfer_step_latency_seconds_count{step="fc2"} 550
trq_intinfer_dispatch_total{path="linear8"} 2600
trq_artifact_loads_total{format="trq",outcome="ok"} 1
`

const varsBefore = `{"cmdline":["trserve"],"memstats":{"TotalAlloc":1000000,"Mallocs":5000,"NumGC":3,"HeapSys":1},"trq_metrics":{}}`
const varsAfter = `{"cmdline":["trserve"],"memstats":{"TotalAlloc":17000000,"Mallocs":105000,"NumGC":7},"trq_metrics":{}}`

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestParsePromCanonicalLabels(t *testing.T) {
	s, err := parseProm(strings.NewReader(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.get("trq_serve_requests_total", "status", "ok"); got != 100 {
		t.Errorf("ok requests = %v", got)
	}
	// Label order in the exposition does not matter to lookups.
	if got := s.get("trq_artifact_loads_total", "format", "trq", "outcome", "ok"); got != 1 {
		t.Errorf("labels out of order: %v", got)
	}
	if got := s.get("trq_serve_request_latency_seconds_bucket", "le", "0.005"); got != 90 {
		t.Errorf("bucket = %v", got)
	}
	steps := s.byLabel("trq_intinfer_step_latency_seconds_sum", "step")
	if len(steps) != 2 || steps["fc1"] != 0.01 || steps["fc2"] != 0.002 {
		t.Errorf("steps = %v", steps)
	}
	for _, bad := range []string{"trq_x", "trq_x{a=\"1\" 2", "trq_x abc", "trq_x{a=1} 2"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed line %q accepted", bad)
		}
	}
}

// Two scrapes of /metrics and /debug/vars around a phase become the
// serve, scheduler and runtime layer metrics.
func TestScrapesBecomeLayerMetrics(t *testing.T) {
	b, err := parseProm(strings.NewReader(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(metricsAfter))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := parseExpvarMem(strings.NewReader(varsBefore))
	if err != nil {
		t.Fatal(err)
	}
	ma, err := parseExpvarMem(strings.NewReader(varsAfter))
	if err != nil {
		t.Fatal(err)
	}
	l := layers{}
	d := a.sub(b)
	serveLayers(l, d, ma.sub(mb), 10, 1, 3500)
	planLayers(l, d, "mlp")
	// 1000 requests in 500 batches over 10 s; handler 3 ms, queue wait
	// 2 ms, plan time 0.11 s over 500 batches = 220 µs per batch.
	want := map[string]float64{
		"serve.handler_us":                    3000,
		"serve.handler_self_us":               3000 - 2000 - 220,
		"serve.client_overhead_us":            500,
		"serve.alloc_bytes_per_req":           16000,
		"serve.allocs_per_req":                100,
		"serve.gc_per_1k_req":                 4,
		"sched.queue_wait_us":                 2000,
		"sched.batch_size_mean":               2,
		"sched.worker_busy_share":             0.011,
		"sched.shed_share":                    0,
		"sched.rung_share.b4":                 0.25,
		"sched.rung_share.b12":                0.75,
		"intinfer.exec_us_per_image.mlp":      110,
		"intinfer.dispatch_per_image.linear8": 2.5,
	}
	for k, v := range want {
		if !near(l[k], v) {
			t.Errorf("%s = %v, want %v", k, l[k], v)
		}
	}
	us := stepUs(d, mlpSteps)
	if !near(us["fc1"], 200) || !near(us["fc2"], 20) {
		t.Errorf("step means = %v, want fc1 200 µs and fc2 20 µs", us)
	}
	if err := l.complete(); err != nil {
		t.Fatal(err)
	}
	if len(l) != len(layerDefs) {
		t.Errorf("complete left %d metrics, want %d", len(l), len(layerDefs))
	}
	l["bogus"] = 1
	if err := l.complete(); err == nil {
		t.Error("undeclared metric accepted")
	}
}

func TestParseExpvarNeedsMemstats(t *testing.T) {
	if _, err := parseExpvarMem(strings.NewReader(`{"cmdline":[]}`)); err == nil {
		t.Error("vars without memstats accepted")
	}
}
