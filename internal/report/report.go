// Package report holds the machine-readable result formats the repo's
// binaries write under results/ — the platform-attribution header every
// report carries, and the serving-layer report trserve emits. The
// kernel bench report (results/BENCH_intinfer.json) lives with trbench
// but embeds the same Platform header, so all reports in the benchmark
// trajectory identify their hardware the same way.
package report

import (
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/kernels"
)

// Platform is the attribution header stamped into every results file:
// OS/arch, CPU counts, the scheduler width the run used, and the kernel
// dispatchers' detected CPU features — enough to tell whose hardware
// (and which kernels) produced a set of numbers.
type Platform struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUFeatures is the kernel dispatchers' detected feature set
	// ("avx2,fma" or empty), stamped so packed-kernel numbers are
	// attributable to the hardware that produced them.
	CPUFeatures string `json:"cpu_features"`
	GitRev      string `json:"git_rev,omitempty"`
}

// NewPlatform captures the current process's platform identity.
func NewPlatform(gitRev string) Platform {
	return Platform{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUFeatures: strings.Join(kernels.Features(), ","), GitRev: gitRev}
}

// Identity is the comparable subset of a Platform that must match for
// an overwrite of a results file to count as a re-run of the same
// experiment. GitRev is excluded: re-measuring at a new revision on the
// same hardware is exactly the refresh case.
type Identity struct {
	GOOS, GOARCH string
	NumCPU       int
	GOMAXPROCS   int
	CPUFeatures  string
}

// Identity returns the platform's comparable identity.
func (p Platform) Identity() Identity {
	return Identity{GOOS: p.GOOS, GOARCH: p.GOARCH, NumCPU: p.NumCPU,
		GOMAXPROCS: p.GOMAXPROCS, CPUFeatures: p.CPUFeatures}
}

// DefaultGitRev resolves the revision stamped into a report: the
// TRBENCH_GIT_REV / GITHUB_SHA environment (CI) first, then a
// best-effort `git rev-parse`; an unknown revision is recorded as the
// empty string, never an error.
func DefaultGitRev() string {
	for _, env := range []string{"TRBENCH_GIT_REV", "GITHUB_SHA"} {
		if v := os.Getenv(env); v != "" {
			return v
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// ServeConfig pins the scheduler and load-generator knobs that shaped a
// serving benchmark's numbers.
type ServeConfig struct {
	Model        string `json:"model"`
	MaxBatch     int    `json:"max_batch"`
	MaxDelayUs   int64  `json:"max_delay_us"`
	QueueCap     int    `json:"queue_cap"`
	BatchWorkers int    `json:"batch_workers"`
	// Workers is the scheduler replica count the headline Results ran
	// at; WorkersSweep lists every pool size the scaling sweep measured
	// (each one a ScalingPoint). SLOP99Ms, when non-zero, is the p99
	// latency bound every phase of the run was held to.
	Workers      int   `json:"workers,omitempty"`
	WorkersSweep []int `json:"workers_sweep,omitempty"`
	SLOP99Ms     int64 `json:"slo_p99_ms,omitempty"`
	Clients      int   `json:"clients"`
	DurationMs   int64 `json:"duration_ms"`
	DeadlineMs   int64 `json:"deadline_ms"`
	// Budgets is the TR group-budget ladder the server ran;
	// DegradeWatermark is the queue depth where admissions start
	// stepping down a rung.
	Budgets          []int `json:"budgets,omitempty"`
	DegradeWatermark int   `json:"degrade_watermark,omitempty"`
}

// ServeResults is the measured outcome of a trserve -selfload run:
// client-side request counts and latency percentiles, and the
// scheduler-side batching behaviour scraped from the server's metrics.
type ServeResults struct {
	Requests   int64   `json:"requests"`
	OK         int64   `json:"ok"`
	Shed       int64   `json:"shed"`      // 429: admission queue full
	Timeout    int64   `json:"timeout"`   // 504: deadline expired
	Errors     int64   `json:"errors"`    // 5xx and transport failures
	ShedRate   float64 `json:"shed_rate"` // Shed / Requests
	Throughput float64 `json:"requests_per_second"`
	P50Us      int64   `json:"p50_us"`
	P90Us      int64   `json:"p90_us"`
	P99Us      int64   `json:"p99_us"`
	MaxUs      int64   `json:"max_us"`
	// ServerP99Us is the server-side handler-latency p99 read from the
	// trq_serve_request_latency_seconds histogram (upper-bound-of-bin
	// convention), the number SLO assertions are made against; -1
	// records that the tail escaped the histogram range.
	ServerP99Us int64 `json:"server_p99_us,omitempty"`
	// Scheduler-side, from the obs registry.
	Batches       int64   `json:"batches"`
	BatchImages   int64   `json:"batch_images"`
	AvgBatch      float64 `json:"avg_batch"`
	QueueDepthEnd int64   `json:"queue_depth_end"`
	// Degradation policy outcomes (family servers only): admissions
	// stepped down a rung, their share of all requests, and the requests
	// answered ok per ladder rung (keyed by budget).
	Degraded     int64            `json:"degraded,omitempty"`
	DegradedRate float64          `json:"degraded_rate,omitempty"`
	BudgetServed map[string]int64 `json:"budget_served,omitempty"`
	// Swaps is how many hot-swaps the server absorbed during the phase
	// (hot-swap phases only): the zero-downtime claim is Swaps ≥ 2 with
	// Errors == 0 in the same row.
	Swaps int64 `json:"swaps,omitempty"`
}

// ServeReport is results/BENCH_serve.json — the serving layer's row in
// the benchmark trajectory. For a family server Results is the run with
// the degradation policy engaged and StrictBaseline the same offered
// load against a shed-only server (QueueCap at the degrade run's
// watermark), so the shed-rate delta attributes to the policy.
type ServeReport struct {
	Platform
	Config         ServeConfig   `json:"config"`
	Results        ServeResults  `json:"results"`
	StrictBaseline *ServeResults `json:"strict_baseline,omitempty"`
	// Scaling is the worker-pool throughput curve: one point per pool
	// size in Config.WorkersSweep, measured under the same offered
	// load. Results/StrictBaseline duplicate the widest point so the
	// headline fields keep their one-phase meaning.
	Scaling []ScalingPoint `json:"scaling,omitempty"`
	// HotSwap is the zero-downtime phase: the widest pool driven at the
	// same offered load while the model artifact is rewritten and
	// hot-swapped in a loop (Swaps counts the reloads that landed).
	HotSwap *ServeResults `json:"hot_swap,omitempty"`
}

// ScalingPoint is one pool size of a worker-scaling sweep: the measured
// phase(s) at that width and the throughput ratio against the 1-worker
// point of the same sweep (0 when the sweep had no 1-worker baseline).
type ScalingPoint struct {
	Workers int          `json:"workers"`
	Speedup float64      `json:"speedup_vs_1,omitempty"`
	Results ServeResults `json:"results"`
	// StrictBaseline is the shed-only control at this pool size, present
	// when the sweep ran the family strict/degrade A/B per point.
	StrictBaseline *ServeResults `json:"strict_baseline,omitempty"`
}

// BudgetPoint is one rung of a measured accuracy/latency curve: the
// numbers that justify a degradation ladder's rung choices.
type BudgetPoint struct {
	Budget          int     `json:"budget"`
	Accuracy        float64 `json:"accuracy"`
	NsPerImage      int64   `json:"ns_per_image"`
	ImagesPerSecond float64 `json:"images_per_second"`
}

// LoadPoint is one demo model's cold-start row: the same trained model
// serialized as a gob snapshot and as a .trq compressed artifact, with
// the on-disk footprints, the measured deserialize times, and the
// plan-build time that follows a load on the way to serving.
type LoadPoint struct {
	Model       string `json:"model"`
	ParamValues int    `json:"param_values"`
	GobBytes    int64  `json:"gob_bytes"`
	TrqBytes    int64  `json:"trq_bytes"`
	// Ratio is GobBytes/TrqBytes — the compressed artifact's on-disk
	// win, gated at >= 2x by trbench -bench-load.
	Ratio       float64 `json:"gob_over_trq"`
	GobLoadNs   int64   `json:"gob_load_ns"`
	TrqLoadNs   int64   `json:"trq_load_ns"`
	PlanBuildNs int64   `json:"plan_build_ns"`
}

// LoadReport is results/BENCH_load.json — the model-artifact cold-start
// benchmark: what the .trq compressed container costs and saves against
// the gob snapshot baseline for each demo model.
type LoadReport struct {
	Platform
	GroupSize   int         `json:"group_size"`
	GroupBudget int         `json:"group_budget"`
	WeightBits  int         `json:"weight_bits"`
	Points      []LoadPoint `json:"points"`
}

// BudgetReport is results/BENCH_budget.json — the per-budget
// accuracy/latency curve of a demo plan family.
type BudgetReport struct {
	Platform
	Model      string        `json:"model"`
	GroupSize  int           `json:"group_size"`
	TestImages int           `json:"test_images"`
	BatchSize  int           `json:"batch_size"`
	Points     []BudgetPoint `json:"points"`
}
