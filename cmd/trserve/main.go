// Command trserve serves a demo term-revealing model over HTTP as a
// ladder of TR group budgets (the paper's run-time accuracy dial), with
// micro-batching, per-request deadlines, bounded-queue load shedding,
// and graceful drain on SIGTERM/SIGINT. A single budget is a one-rung
// ladder: -budgets 12.
//
// Usage:
//
//	trserve                       # serve the digits MLP on 127.0.0.1:8080
//	trserve -model cnn -addr :9000
//	trserve -budgets 12           # the single-budget server
//	trserve -smoke                # one classify + /metrics scrape + drain
//	trserve -selfload             # closed-loop load run; writes
//	                              # results/BENCH_serve.json
//
// The serving endpoint:
//
//	POST /v1/classify  {"image":[...], "deadline_ms":50, "budget":8}
//	                   -> {"class":3, "batch_size":8, "queue_us":812, "budget":8}
//	POST /v1/reload    rebuild the model from the boot artifact and
//	                   hot-swap it in between micro-batches (zero
//	                   dropped requests); SIGHUP does the same
//	GET  /healthz      liveness (503 while draining); reports the
//	                   serving model version
//	GET  /metrics      Prometheus text: trq_serve_* plus the runtime's
//	                   trq_intinfer_* / trq_kernel_* families
//	     /debug/*      expvar + pprof
//
// The model comes from -artifact (a .trq compressed artifact or gob
// snapshot, sniffed); without it the demo model is trained in-process
// and persisted to a temporary .trq so reloads always have a source.
// The reload source is pinned at boot — a client can trigger a reload
// but never choose what gets loaded.
//
// Requests the admission queue cannot hold are shed with 429 and a
// Retry-After hint; requests whose deadline lapses in the queue or
// mid-batch return 504. SIGTERM stops admission, flushes the queue,
// and shuts the listener down gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/demoplan"
	"repro/internal/intinfer"
	"repro/internal/kernels/autotune"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		model       = flag.String("model", "mlp", "demo model to serve: mlp or cnn")
		artPath     = flag.String("artifact", "", "serve a saved model (.trq artifact or gob snapshot, sniffed) instead of training the demo model; also the /v1/reload source")
		swapEvery   = flag.Duration("swap-every", 250*time.Millisecond, "selfload: hot-swap interval of the zero-downtime phase")
		maxBatch    = flag.Int("max-batch", serve.DefaultMaxBatch, "max images per dispatched micro-batch")
		maxDelay    = flag.Duration("max-delay", serve.DefaultMaxDelay, "max wait for a micro-batch to fill")
		queueCap    = flag.Int("queue-cap", serve.DefaultQueueCap, "admission queue bound; overflow sheds with 429")
		batchWork   = flag.Int("batch-workers", 1, "batch-level inference parallelism inside one dispatch (<1 = GOMAXPROCS)")
		workers     = flag.Int("workers", 1, "replicated batch workers consuming the admission queue (<1 = GOMAXPROCS)")
		budgets     = flag.String("budgets", "4,8,12", "TR group-budget ladder served as a plan family; one budget (e.g. 12) is the single-budget server")
		watermark   = flag.Int("degrade-watermark", 0, "queue depth where admissions degrade one budget rung (0 = queue-cap/2)")
		lowWater    = flag.Int("degrade-low-watermark", 0, "queue depth where the degradation latch disengages (0 = watermark/2)")
		deadline    = flag.Duration("deadline", serve.DefaultDeadline, "default per-request serving deadline")
		maxDeadline = flag.Duration("max-deadline", serve.DefaultMaxDeadline, "clamp on client-requested deadlines")
		drainWait   = flag.Duration("drain-wait", 10*time.Second, "bound on the SIGTERM graceful drain")
		smoke       = flag.Bool("smoke", false, "start, classify one image over HTTP, scrape /metrics, drain, exit")
		selfload    = flag.Bool("selfload", false, "run the built-in load generator and write the serve benchmark report")
		clients     = flag.Int("clients", 32, "selfload: closed-loop client goroutines")
		duration    = flag.Duration("duration", 2*time.Second, "selfload: how long to drive load")
		loadDeadl   = flag.Duration("load-deadline", 200*time.Millisecond, "selfload: per-request deadline the clients ask for")
		sweep       = flag.String("sweep", "1,2,4,8", "selfload: worker-pool sizes the scaling sweep measures, one load phase each")
		sloP99      = flag.Duration("slo-p99", 0, "selfload: per-phase p99 latency SLO asserted against the server-side histogram (0 = record only)")
		out         = flag.String("out", "results/BENCH_serve.json", "selfload: output path for the serve benchmark report")
		force       = flag.Bool("force", false, "selfload: overwrite the results file even when its config differs")
		gitRev      = flag.String("git-rev", report.DefaultGitRev(), "git revision recorded in the selfload report")
	)
	flag.Parse()

	ladder, err := parseInts("-budgets", *budgets, "4,8,12")
	if err != nil {
		fmt.Fprintln(os.Stderr, "trserve:", err)
		os.Exit(1)
	}
	sweepList, err := parseInts("-sweep", *sweep, "1,2,4,8")
	if err != nil {
		fmt.Fprintln(os.Stderr, "trserve:", err)
		os.Exit(1)
	}
	if err := run(config{addr: *addr, model: *model, artifact: *artPath,
		maxBatch: *maxBatch,
		maxDelay: *maxDelay, queueCap: *queueCap, batchWorkers: *batchWork,
		workers: *workers, sweep: sweepList, sloP99: *sloP99,
		budgets: ladder, watermark: *watermark, lowWatermark: *lowWater,
		deadline: *deadline, maxDeadline: *maxDeadline, drainWait: *drainWait,
		smoke: *smoke, selfload: *selfload, clients: *clients,
		duration: *duration, loadDeadline: *loadDeadl, swapEvery: *swapEvery,
		out: *out, force: *force, gitRev: *gitRev}); err != nil {
		fmt.Fprintln(os.Stderr, "trserve:", err)
		os.Exit(1)
	}
}

// parseInts reads a comma-separated list flag of positive integers —
// the -budgets ladder or the -sweep worker-pool sizes — ascending after
// sort, deduplicated.
func parseInts(flagName, s, example string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad %s entry %q (want positive integers, e.g. %s)", flagName, part, example)
		}
		out = append(out, n)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

type config struct {
	addr, model             string
	artifact                string
	maxBatch, queueCap      int
	batchWorkers, workers   int
	clients                 int
	budgets, sweep          []int
	watermark, lowWatermark int
	maxDelay, deadline      time.Duration
	maxDeadline, drainWait  time.Duration
	duration, loadDeadline  time.Duration
	swapEvery               time.Duration
	sloP99                  time.Duration
	smoke, selfload, force  bool
	out, gitRev             string

	// Derived by run()/bootModel, not flags. bootVersion labels the
	// model the server starts with; reload rebuilds the family from the
	// pinned artifact path (serve.Config.Reload); rewrite persists the
	// boot model back to that path under a new version label — nil when
	// the source is a gob snapshot, which carries no version.
	bootVersion string
	reload      func(ctx context.Context) (*intinfer.Family, string, error)
	rewrite     func(version string) error
}

func run(cfg config) error {
	reg := obs.New()
	autotune.SetObs(reg) // plan build below may tune tiles; count the hits/misses

	m, images, cleanup, err := bootModel(&cfg)
	if err != nil {
		return err
	}
	defer cleanup()

	// The reload source is pinned here, at boot: /v1/reload and SIGHUP
	// re-read this exact path, never a client-supplied location.
	artifactPath := cfg.artifact
	cfg.reload = func(ctx context.Context) (*intinfer.Family, string, error) {
		rm, info, err := artifact.LoadModelFile(artifactPath)
		if err != nil {
			return nil, "", err
		}
		version := ""
		if info != nil {
			version = info.Version
		}
		f, err := demoplan.FamilyFromModel(rm, reg, cfg.budgets)
		return f, version, err
	}

	fmt.Printf("trserve: compiling the %s plan family (budgets %v)...\n", cfg.model, cfg.budgets)
	fam, err := demoplan.FamilyFromModel(m, reg, cfg.budgets)
	if err != nil {
		return err
	}
	if cfg.selfload {
		// The selfload harness builds its own servers, a strict and a
		// degrade phase per sweep point, so every phase's counters start
		// from zero.
		return runSelfload(fam, images, cfg)
	}
	s, err := serve.New(serve.Config{Family: fam,
		MaxBatch: cfg.maxBatch, MaxDelay: cfg.maxDelay, QueueCap: cfg.queueCap,
		BatchWorkers: cfg.batchWorkers, Workers: cfg.workers,
		DefaultDeadline: cfg.deadline, MaxDeadline: cfg.maxDeadline,
		DegradeWatermark: cfg.watermark, DegradeLowWatermark: cfg.lowWatermark,
		ModelVersion: cfg.bootVersion, Reload: cfg.reload,
		Obs: reg})
	if err != nil {
		return err
	}

	if cfg.smoke {
		return runSmoke(s, images, cfg)
	}

	if err := s.Start(cfg.addr); err != nil {
		return err
	}
	fmt.Printf("trserve: serving %s on http://%s (workers=%d max_batch=%d max_delay=%v queue_cap=%d budgets=%v)\n",
		cfg.model, s.Addr, cfg.workers, cfg.maxBatch, cfg.maxDelay, cfg.queueCap, cfg.budgets)

	// SIGHUP hot-swaps the model from the boot artifact, the classic
	// "reread your config" contract; SIGTERM/SIGINT drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			version, err := s.Reload(context.Background())
			if err != nil {
				fmt.Fprintln(os.Stderr, "trserve: reload:", err)
				continue
			}
			fmt.Printf("trserve: reloaded model (version %q)\n", version)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // restore default signal handling: a second ^C kills hard

	fmt.Println("trserve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st := s.Stats()
	fmt.Printf("trserve: drained cleanly (%d ok, %d shed, %d timeout, %d batches)\n",
		st.OK, st.Shed, st.Timeout, st.Batches)
	return nil
}

// bootModel produces the raw model trserve serves and guarantees it is
// backed by an artifact on disk so /v1/reload always has a source:
// -artifact loads the given file (trq or gob, sniffed), otherwise the
// demo model is trained in-process and persisted to a temporary .trq
// first. It must run before compilation — FamilyFromModel folds batch
// norm in place, and the artifact needs the unfolded statistics.
//
// It also derives cfg.bootVersion and cfg.rewrite; cfg.rewrite stays
// nil when the source is a gob snapshot (no version label to bump).
// The returned cleanup removes the temporary artifact, if any.
func bootModel(cfg *config) (*models.ImageModel, [][]float32, func(), error) {
	none := func() {}
	if cfg.artifact != "" {
		fmt.Printf("trserve: loading model from %s...\n", cfg.artifact)
		m, info, err := artifact.LoadModelFile(cfg.artifact)
		if err != nil {
			return nil, nil, nil, err
		}
		if info != nil {
			cfg.bootVersion = info.Version
			cfg.rewrite = rewriteArtifact(cfg.artifact)
		}
		return m, demoplan.TestImages(m), none, nil
	}
	fmt.Printf("trserve: training the %s demo model...\n", cfg.model)
	m, hidden, test, err := demoplan.ModelByName(cfg.model)
	if err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp("", "trserve-")
	if err != nil {
		return nil, nil, nil, err
	}
	path := filepath.Join(dir, cfg.model+".trq")
	if err := artifact.WriteModelFile(path, m, hidden, artifact.WriteOptions{
		GroupSize:   demoplan.QuantGroupSize,
		GroupBudget: demoplan.QuantGroupBudget,
		Version:     "boot",
	}); err != nil {
		//trlint:checked temp-dir cleanup: best-effort removal on the error path
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	cfg.artifact = path
	cfg.bootVersion = "boot"
	cfg.rewrite = rewriteArtifact(path)
	//trlint:checked temp-dir cleanup: best-effort removal, nothing to recover
	return m, test.Images, func() { os.RemoveAll(dir) }, nil
}

// rewriteArtifact returns the version-bump closure the hot-swap phases
// use: round-trip the artifact at path through the reader and writer
// under a new version label, atomically (write-temp + rename) so a
// concurrent reload never sees a half-written file.
func rewriteArtifact(path string) func(version string) error {
	return func(version string) error {
		m, info, err := artifact.LoadModelFile(path)
		if err != nil {
			return err
		}
		if info == nil {
			return fmt.Errorf("%s is a gob snapshot; version bumps need a .trq artifact", path)
		}
		tmp := path + ".tmp"
		if err := artifact.WriteModelFile(tmp, m, info.Hidden, artifact.WriteOptions{
			GroupSize:   info.GroupSize,
			GroupBudget: info.GroupBudget,
			Version:     version,
		}); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
}
