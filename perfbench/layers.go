package main

import (
	"fmt"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit, Better string
}

// e2eDefs are the end-to-end metrics every untraced run reports; see
// README.md for what each means on each workload.
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"cpu_us_per_req", "us", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"agreement_b4", "ratio", "higher"},
	{"agreement_b12", "ratio", "higher"},
}

// mlpSteps and cnnSteps are the top-level plan steps of the demo
// models, as the trq_intinfer_step_latency_seconds step label names
// them.
var (
	mlpSteps = []string{"fc1", "fc2"}
	cnnSteps = []string{"stem",
		"s1b1.res", "s1b1.relu2", "s1b2.res", "s1b2.relu2",
		"s2b1.res", "s2b1.relu2", "s2b2.res", "s2b2.relu2",
		"s3b1.res", "s3b1.relu2", "s3b2.res", "s3b2.relu2",
		"gap", "fc"}
	mlpProbeBatches = []int{1, 8, 64}
	cnnProbeBatch   = 8
	dispatchPaths   = []string{"gemm", "gemm8", "gemv", "gemv_f64", "direct", "express", "linear8"}
	// overheadOf lists the end-to-end metrics (e2eDefs[1:5]) whose
	// tracing overhead the traced run reports.
	overheadOf = e2eDefs[1:5]
)

// layerDefs are the per-layer metrics every traced run reports. A
// metric that a workload does not exercise reads 0 there; README.md
// says which end-to-end metric and workload each should move.
var layerDefs = func() []metricDef {
	d := []metricDef{
		{"serve.handler_us", "us", "lower"},
		{"serve.handler_self_us", "us", "lower"},
		{"serve.client_overhead_us", "us", "lower"},
		{"serve.alloc_bytes_per_req", "B", "lower"},
		{"serve.allocs_per_req", "count", "lower"},
		{"serve.gc_per_1k_req", "count", "lower"},
		{"serve.reload_ms", "ms", "lower"},
		{"sched.queue_wait_us", "us", "lower"},
		{"sched.batch_size_mean", "count", "higher"},
		{"sched.worker_busy_share", "ratio", "lower"},
		{"sched.degraded_share", "ratio", "lower"},
		{"sched.shed_share", "ratio", "lower"},
		{"sched.rung_share.b4", "ratio", "lower"},
		{"sched.rung_share.b8", "ratio", "lower"},
		{"sched.rung_share.b12", "ratio", "higher"},
		{"intinfer.exec_us_per_image.mlp", "us", "lower"},
		{"intinfer.exec_us_per_image.cnn", "us", "lower"},
	}
	for _, s := range mlpSteps {
		for _, b := range mlpProbeBatches {
			d = append(d, metricDef{fmt.Sprintf("intinfer.step_us.mlp.%s.b%d", s, b), "us", "lower"})
		}
	}
	for _, s := range cnnSteps {
		d = append(d, metricDef{fmt.Sprintf("intinfer.step_us.cnn.%s.b%d", s, cnnProbeBatch), "us", "lower"})
	}
	for _, p := range dispatchPaths {
		d = append(d, metricDef{"intinfer.dispatch_per_image." + p, "count", "lower"})
	}
	d = append(d,
		metricDef{"intinfer.arena_new", "count", "lower"},
		metricDef{"kernels.gemm8_per_image.asm", "count", "lower"},
		metricDef{"kernels.gemm8_per_image.portable", "count", "lower"},
		metricDef{"kernels.gemv8_per_image", "count", "lower"},
		metricDef{"kernels.gemvf64_per_image.asm", "count", "lower"},
		metricDef{"kernels.gemvf64_per_image.portable", "count", "lower"},
		metricDef{"autotune.measured", "count", "lower"},
		metricDef{"autotune.hits", "count", "higher"},
		metricDef{"autotune.measure_ms", "ms", "lower"},
		metricDef{"artifact.load_ms.mlp", "ms", "lower"},
		metricDef{"artifact.load_ms.cnn", "ms", "lower"},
		metricDef{"artifact.bytes.mlp", "B", "lower"},
		metricDef{"artifact.bytes.cnn", "B", "lower"},
		metricDef{"compile.family_ms.mlp", "ms", "lower"},
		metricDef{"compile.family_ms.cnn", "ms", "lower"},
		metricDef{"boot.overhead_ms", "ms", "lower"},
		metricDef{"gen.late_p99_us", "us", "lower"},
		metricDef{"gen.achieved_rps", "req/s", "higher"},
	)
	for _, m := range overheadOf {
		d = append(d, metricDef{"trace.overhead." + m.Name, m.Unit, m.Better})
	}
	return d
}()

// layers is one traced run's per-layer values, keyed by metric name.
type layers map[string]float64

// div is a/b, or 0 when there is nothing to divide by.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stepSeconds sums every plan step's latency in a scrape delta.
func stepSeconds(d series) float64 {
	total := 0.0
	for _, v := range d.byLabel("trq_intinfer_step_latency_seconds_sum", "step") {
		total += v
	}
	return total
}

// serveLayers derives the HTTP-handler and scheduler metrics from the
// server's own counters across a timed phase: d is the /metrics delta,
// mem the allocator delta, wall the phase length in seconds, workers
// the scheduler's batch workers, and clientUs the mean round trip the
// client measured around the handler. A request waits through its
// whole batch, so the plan time taken out of the handler's self time is
// the mean batch execution time.
func serveLayers(l layers, d series, mem memCounters, wall float64, workers int, clientUs float64) {
	handler := div(d.get("trq_serve_request_latency_seconds_sum"), d.get("trq_serve_request_latency_seconds_count")) * 1e6
	wait := div(d.get("trq_serve_queue_wait_seconds_sum"), d.get("trq_serve_queue_wait_seconds_count")) * 1e6
	steps := stepSeconds(d)
	batches := d.get("trq_serve_batches_total")
	ok := d.get("trq_serve_requests_total", "status", "ok")
	total := ok
	for _, st := range []string{"shed", "timeout", "error", "draining"} {
		total += d.get("trq_serve_requests_total", "status", st)
	}
	l["serve.handler_us"] = handler
	l["serve.handler_self_us"] = handler - wait - div(steps, batches)*1e6
	l["serve.client_overhead_us"] = clientUs - handler
	l["serve.alloc_bytes_per_req"] = div(float64(mem.TotalAlloc), ok)
	l["serve.allocs_per_req"] = div(float64(mem.Mallocs), ok)
	l["serve.gc_per_1k_req"] = div(float64(mem.NumGC)*1000, ok)
	l["sched.queue_wait_us"] = wait
	l["sched.batch_size_mean"] = div(d.get("trq_serve_batch_images_total"), batches)
	l["sched.worker_busy_share"] = div(steps, float64(workers)*wall)
	l["sched.degraded_share"] = div(d.get("trq_serve_budget_degraded_total"), total)
	l["sched.shed_share"] = div(d.get("trq_serve_requests_total", "status", "shed"), total)
	served := d.byLabel("trq_serve_budget_served_total", "budget")
	sum := 0.0
	for _, v := range served {
		sum += v
	}
	for _, b := range []string{"4", "8", "12"} {
		l["sched.rung_share.b"+b] = div(served[b], sum)
	}
}

// planLayers derives the runtime and kernel metrics of one model's
// inference across a timed phase from the registry delta d.
func planLayers(l layers, d series, model string) {
	images := d.get("trq_intinfer_batch_images_total")
	l["intinfer.exec_us_per_image."+model] = div(stepSeconds(d), images) * 1e6
	for _, p := range dispatchPaths {
		l["intinfer.dispatch_per_image."+p] = div(d.get("trq_intinfer_dispatch_total", "path", p), images)
	}
	l["intinfer.arena_new"] = d.get("trq_intinfer_arena_scratch_total", "event", "new")
	l["kernels.gemm8_per_image.asm"] = div(d.get("trq_kernels_gemm8_dispatch_total", "path", "asm"), images)
	l["kernels.gemm8_per_image.portable"] = div(d.get("trq_kernels_gemm8_dispatch_total", "path", "portable"), images)
	l["kernels.gemv8_per_image"] = div(d.get("trq_kernels_gemv8_dispatch_total", "path", "portable"), images)
	l["kernels.gemvf64_per_image.asm"] = div(d.get("trq_kernels_gemvf64_dispatch_total", "path", "asm"), images)
	l["kernels.gemvf64_per_image.portable"] = div(d.get("trq_kernels_gemvf64_dispatch_total", "path", "portable"), images)
}

// autotuneLayers reads the tile tuner's counters across one set-up.
func autotuneLayers(l layers, d series) {
	l["autotune.measured"] = d.get("trq_kernels_autotune_total", "outcome", "measured")
	l["autotune.hits"] = d.get("trq_kernels_autotune_total", "outcome", "hit")
	l["autotune.measure_ms"] = d.get("trq_kernels_autotune_measure_ns_total") / 1e6
}

// stepUs is the mean latency of each named step in a scrape delta, in
// microseconds per step execution.
func stepUs(d series, steps []string) map[string]float64 {
	sums := d.byLabel("trq_intinfer_step_latency_seconds_sum", "step")
	counts := d.byLabel("trq_intinfer_step_latency_seconds_count", "step")
	out := map[string]float64{}
	for _, s := range steps {
		out[s] = div(sums[s], counts[s]) * 1e6
	}
	return out
}

// medianLayers reduces the layer maps of several processes to their
// per-metric median, over every process that reported the metric.
func medianLayers(all []layers) layers {
	vals := map[string][]float64{}
	for _, l := range all {
		for k, v := range l {
			vals[k] = append(vals[k], v)
		}
	}
	out := layers{}
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// complete fills every declared layer metric a workload left unset with
// 0 and reports names that are not declared, so a traced run prints
// exactly the declared set.
func (l layers) complete() error {
	declared := map[string]bool{}
	for _, d := range layerDefs {
		declared[d.Name] = true
		if _, ok := l[d.Name]; !ok {
			l[d.Name] = 0
		}
	}
	var extra []string
	for k := range l {
		if !declared[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared layer metrics %v", extra)
	}
	return nil
}
