// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the deployed layers from outside — the trserve
// binary over HTTP, an in-process serve.Server through its HTTP
// handler, or the intinfer library directly — and prints every
// end-to-end metric (untraced run) or every per-layer metric (traced
// run), ending with one JSON line. See README.md for the workloads and
// metrics; run it through run.py, which builds it and trserve first.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/kernels"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	trserve  string
	// Child-process roles; the orchestrator sets these.
	role  string
	dir   string
	slice float64
	index int
}

// Run shape. Compute speed on a shared host drifts over seconds, so
// every workload measures in several fresh processes (or trserve
// boots), each one window, and reports medians over the windows;
// set-up is sampled in extra fresh processes (or boots) on top.
const (
	measureProcs = 4
	setupProcs   = 11
	httpBootsN   = 15
	httpLoadedN  = 5
)

// spansPath is where this process writes its spans in a traced run.
func (o *options) spansPath() string {
	role := o.role
	if role == "" {
		role = "orchestrator"
	}
	return filepath.Join(o.dir, fmt.Sprintf("spans-%s-%d.json", role, o.index))
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: http_mlp, closed_cnn or offline_mlp")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds the run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run, printing the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "root of the checkout (holds .bench_build)")
	flag.StringVar(&o.trserve, "trserve", "", "trserve binary built from the checkout")
	flag.StringVar(&o.role, "role", "", "internal: run one child process (prep, worker)")
	flag.StringVar(&o.dir, "dir", "", "internal: run directory")
	flag.Float64Var(&o.slice, "slice", 0, "internal: seconds a worker measures (0: set-up only)")
	flag.IntVar(&o.index, "index", 0, "internal: worker index")
	flag.Parse()
	o.trace = trace == 1
	if err := dispatch(&o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func dispatch(o *options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	switch o.role {
	case "":
		return orchestrate(w, o)
	case "prep":
		return runPrep(w, o.seed, o.dir)
	case "worker":
		p, err := loadPrepared(o.dir)
		if err != nil {
			return err
		}
		var res *workerResult
		if w.Name == "closed_cnn" {
			res, err = runClosedWorker(w, o, p)
		} else {
			res, err = runOfflineWorker(w, o, p)
		}
		if err != nil {
			return err
		}
		out, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	return fmt.Errorf("unknown role %q", o.role)
}

// spawn runs this binary as a fresh child process in role and returns
// its stdout. The child dies with its parent.
func spawn(o *options, role string, slice float64, index int, trace bool) ([]byte, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(os.Args[0], "-role", role, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-dir", o.dir, "-trace", t,
		"-slice", strconv.FormatFloat(slice, 'f', -1, 64), "-index", strconv.Itoa(index))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s process: %w", role, err)
	}
	return out, nil
}

// measurement is one workload's outcome over its share of the run.
type measurement struct {
	t       *tally
	windows []latencySummary // one per measuring process or loaded boot
	lat     latencySummary   // the windows reduced by windowed
	setups  []float64
	e2e     map[string]float64
	layers  layers
}

// runInProcess measures closed_cnn or offline_mlp: setupProcs
// set-up-only processes, then measureProcs workers that each set up
// cold and measure an equal share of seconds. Each worker is one
// latency window; throughput, CPU and RSS are medians over workers.
func runInProcess(w workload, o *options, p *prepared, seconds float64, trace bool) (*measurement, error) {
	m := &measurement{t: &tally{}}
	var tput, cpu, rss []float64
	var ls []layers
	for i := 0; i < setupProcs+measureProcs; i++ {
		slice := 0.0
		if i >= setupProcs {
			slice = seconds / measureProcs
		}
		out, err := spawn(o, "worker", slice, i, trace)
		if err != nil {
			return nil, err
		}
		var r workerResult
		if err := json.Unmarshal(lastLine(out), &r); err != nil {
			return nil, fmt.Errorf("worker result: %w", err)
		}
		if r.TunedTiles != 0 {
			return nil, fmt.Errorf("void run: set-up %d tuned %v tiles instead of reading the warm cache", i, r.TunedTiles)
		}
		m.setups = append(m.setups, r.SetupS)
		if slice == 0 {
			continue
		}
		m.t.merge(&tally{ok: r.Items, attempted: r.Attempted,
			failed: r.Failed, misses: r.Mismatches, firstErr: r.FirstError})
		m.windows = append(m.windows, r.Lat)
		tput = append(tput, div(float64(r.Items), r.WallS))
		cpu = append(cpu, div(r.CPUS*1e6, float64(r.Items)))
		rss = append(rss, r.RSSMiB)
		if r.Layers != nil {
			ls = append(ls, r.Layers)
		}
	}
	fmt.Printf("perfbench: throughput per process %.6g /s\n", tput)
	m.lat = windowed(m.windows)
	m.e2e = map[string]float64{
		"setup_s":          median(m.setups),
		"latency_p50_ms":   m.lat.P50,
		"latency_p99_ms":   m.lat.P99,
		"throughput_per_s": median(tput),
		"cpu_us_per_req":   median(cpu),
		"peak_rss_mb":      median(rss),
	}
	if trace {
		m.layers = medianLayers(ls)
		if w.Name == "closed_cnn" {
			if err := trserveLayers(m.layers, o, w, p); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

func measure(w workload, o *options, p *prepared, seconds float64, trace bool) (*measurement, error) {
	var m *measurement
	var err error
	if w.Name == "http_mlp" {
		m, err = runHTTP(w, o, p, seconds, trace)
	} else {
		m, err = runInProcess(w, o, p, seconds, trace)
	}
	if err != nil {
		return nil, err
	}
	top := p.Budgets[len(p.Budgets)-1]
	m.e2e["agreement_b4"] = p.Refs.agreement(4)
	m.e2e["agreement_b12"] = p.Refs.agreement(top)
	return m, nil
}

// orchestrate runs one workload end to end: untimed prep in a fresh
// process (artifact, warm tile cache, answer key), then the timed
// phases, then the report. A traced run measures half its seconds
// untraced and half traced, and reports the difference as the tracing
// overhead.
func orchestrate(w workload, o *options) error {
	base, err := filepath.Abs(filepath.Join(o.root, ".bench_build", "perfbench"))
	if err != nil {
		return err
	}
	kind := "runs"
	if o.trace {
		kind = "traces"
	}
	o.dir = filepath.Join(base, kind, fmt.Sprintf("%s-seed%d", w.Name, o.seed))
	if err := os.RemoveAll(o.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	// Every process of the run, trserve included, reads tiles from this
	// one cache, which the prep process fills untimed.
	if err := os.Setenv("TRQ_AUTOTUNE_CACHE", filepath.Join(base, "autotune.json")); err != nil {
		return err
	}
	if o.trserve == "" && (w.Name == "http_mlp" || w.Name == "closed_cnn" && o.trace) {
		return fmt.Errorf("%s needs -trserve", w.Name)
	}
	if _, err := spawn(o, "prep", 0, 0, false); err != nil {
		return err
	}
	p, err := loadPrepared(o.dir)
	if err != nil {
		return err
	}
	printHeader(w, o, p)

	var m *measurement
	if !o.trace {
		if m, err = measure(w, o, p, o.seconds, false); err != nil {
			return err
		}
	} else {
		plain, err := measure(w, o, p, o.seconds/2, false)
		if err != nil {
			return err
		}
		if m, err = measure(w, o, p, o.seconds/2, true); err != nil {
			return err
		}
		for _, d := range overheadOf {
			m.layers["trace.overhead."+d.Name] = m.e2e[d.Name] - plain.e2e[d.Name]
		}
		plain.t.merge(m.t)
		m.t = plain.t
	}
	if err := writeReport(w, o, m); err != nil {
		return err
	}
	if !o.trace {
		return os.RemoveAll(o.dir)
	}
	return nil
}

// gitRev reads the checkout's HEAD commit from root/.git without
// running git (which would search parent directories); "unknown" when
// the checkout is not a git repository.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ref
}

// printHeader records what the numbers depend on.
func printHeader(w workload, o *options, p *prepared) {
	rev := gitRev(o.root)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", w.Name, o.seed, o.seconds, o.trace)
	fmt.Printf("perfbench: git=%s go=%s nproc=%d GOMAXPROCS=%d features=%s\n",
		rev, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), strings.Join(kernels.Features(), ","))
	fmt.Printf("perfbench: artifact %s sha256=%s bytes=%d ladder=%v\n", filepath.Base(p.Artifact), p.SHA256, p.Bytes, p.Budgets)
	tiles, _ := json.Marshal(p.TileCache)
	fmt.Printf("perfbench: tiles tuned during prep=%d picks=%s\n", p.TilesTuned, tiles)
}

// writeReport prints the human-readable metrics and the final JSON line,
// and fails the run on any answer mismatch.
func writeReport(w workload, o *options, m *measurement) error {
	fmt.Printf("perfbench: %d attempted, %d failed (failed_share %.6f), %d answer mismatches\n",
		m.t.attempted, m.t.failed, div(float64(m.t.failed), float64(m.t.attempted)), m.t.misses)
	if m.t.firstErr != "" {
		fmt.Printf("perfbench: first failure: %s\n", m.t.firstErr)
	}
	fmt.Printf("perfbench: latency samples %d in %d windows, percentiles the median over windows (fewest beyond p99 in a window: %d); set-up samples %d\n",
		m.lat.N, len(m.windows), m.lat.Beyond99, len(m.setups))
	defs, vals := e2eDefs, m.e2e
	if o.trace {
		if err := m.layers.complete(); err != nil {
			return err
		}
		defs, vals = layerDefs, m.layers
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing was measured (every request failed); JSON has no NaN
		}
		fmt.Printf("  %-44s %14.6g %s\n", d.Name, v, d.Unit)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct": m.t.misses == 0, "attempted": m.t.attempted, "failed": m.t.failed, "metrics": metrics})
	if err != nil {
		return err
	}
	if o.trace {
		if err := os.WriteFile(filepath.Join(o.dir, "result.json"), out, 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(out))
	if m.t.misses > 0 {
		return fmt.Errorf("%d answers differ from the library's (first: %s)", m.t.misses, m.t.firstErr)
	}
	return nil
}
