# Verification tiers for the term-revealing reproduction.
#
#   make tier1   build + full test suite (the repo's gate; ROADMAP.md)
#   make tier2   vet + race-enabled tests, then the intinfer batch
#                driver's tests again under -race at -cpu 1,2,4:
#                workers < 1 resolves to GOMAXPROCS, so how a batch
#                splits into spans depends on the core count (see
#                TestParallelPathsUnderContention)
#   make tier3   vet + trlint (the custom static-invariant suite,
#                DESIGN.md §8) + race-enabled tests
#   make lint    trlint alone: quantnarrow, poolarena, asmparity,
#                floatcmp, errpropagate, intrange, ctxguard, lockguard
#                over every module package (DESIGN.md §8 and §13)
#   make lint-json  same gate, findings as a JSON array on stdout (CI
#                artifacts and editor tooling)
#   make bench   integer-inference benchmarks + results/BENCH_intinfer.json
#   make benchcmp  re-measure and diff ns_per_image against the committed
#                baseline; fails on a >10% regression on any benchmark
#   make tier1-noasm  tier1 with the assembly kernels compiled out
#                (-tags noasm), proving the portable fallbacks alone pass
#   make cross-build  vet every package for arm64 (GOARCH=arm64), the
#                non-amd64 build the *_other.go kernel twins carry alone
#   make autotune-check  tile-autotuner determinism gate: two cold plan
#                builds against one warm cache must land identical tile
#                picks, identical predictions, and zero microbenchmark
#                time on the warm build
#   make serve-smoke  end-to-end serving check, run twice: on the
#                default ladder (4,8,12) and on the one-rung ladder
#                (-budgets 12, the single-budget server). Each boots
#                trserve on an ephemeral port, classifies one image over
#                HTTP, scrapes /metrics for the trq_serve_* families,
#                issues one request at the lowest rung and asserts the
#                response echoes it (12 on the one-rung server), hot-swaps
#                the model through POST /v1/reload (version bump on the
#                boot artifact, classify again on the swapped model) and
#                drains
#   make serve-bench  selfload run + results/BENCH_serve.json; with the
#                default budget ladder this runs the strict/degrade A/B
#                per worker-pool size in the scaling sweep and records
#                the shed-rate contrast plus the scaling curve
#   make serve-soak  multi-core soak: sweep the worker pool under
#                closed-loop load with the per-phase p99 SLO asserted
#                against the server-side latency histogram; writes a
#                scratch report (results/BENCH_soak.json, gitignored)
#                so the committed scaling baseline is never clobbered
#   make budget-bench  per-budget accuracy/latency curve of the demo
#                plan family + results/BENCH_budget.json
#   make load-bench  model cold-start benchmark: gob snapshot vs .trq
#                compressed artifact (on-disk bytes, load time, plan
#                build) + results/BENCH_load.json; fails unless the
#                artifact is at least 2x smaller than gob
#   make serve-fuzz  the classify fuzzers, 30 s each: the one-pass body
#                parser against encoding/json (FuzzDecodeClassify), its
#                numeral converter against strconv.ParseFloat at 32 and
#                64 bits on numerals built from a mantissa and a decimal
#                exponent (FuzzNumeral), raw bodies through a running
#                server's handler (FuzzClassifyHandler), then arbitrary
#                float32 pixels through every intinfer entry point
#                (FuzzClassify); their seed corpora already run in tier1
#                as plain tests
#   make serve-race  the serve package under the race detector ten times
#                over: the drain, swap and batching-window tests are
#                timing-sensitive, so one clean pass is not evidence
#   make perfbench-check  the end-to-end benchmark's harness tests, then
#                a short closed_cnn run and a short offline_mlp run that
#                must each print "correct":true: every served class
#                equals the library's class for that image and rung, and
#                every offline batch-64 prediction equals single-image
#                Classify, an end-to-end bit-identity gate for both
#                models on the batched lane

GO ?= go

.PHONY: tier1 tier1-noasm cross-build tier2 tier3 lint lint-json bench benchcmp autotune-check serve-smoke serve-bench serve-soak serve-fuzz serve-race budget-bench load-bench perfbench-check

tier1:
	$(GO) build ./... && $(GO) test ./...

tier1-noasm:
	$(GO) build -tags noasm ./... && $(GO) test -tags noasm ./...

cross-build:
	GOARCH=arm64 $(GO) vet ./...

# The race tiers skip internal/experiments: that package regenerates
# the paper's evaluation serially end to end (model training + sweeps),
# which race instrumentation stretches past 45 minutes while adding no
# interleaving coverage. Every concurrent surface — the intinfer batch
# spans, the kernels chunk goroutines — has its own race-enabled suite
# in its own package. The explicit timeout keeps the
# slower race packages (models, intinfer, qsim) clear of go test's
# default 10-minute per-package alarm.
RACE_TIMEOUT ?= 20m
RACE_PKGS = $$($(GO) list ./... | grep -v /internal/experiments)

tier2:
	$(GO) vet ./... && $(GO) test -race -timeout $(RACE_TIMEOUT) $(RACE_PKGS)
	$(GO) test -race -timeout $(RACE_TIMEOUT) -cpu 1,2,4 -run '^(TestBatchedConvMatchesClassify|TestParallel.*|TestInferBatch.*|TestLinear8BatchMatchesPerImage|TestNonFiniteInputsAgreeAcrossLanes|TestDeadlineCancels.*)$$' ./internal/intinfer

tier3:
	$(GO) vet ./...
	$(GO) run ./cmd/trlint ./...
	$(GO) test -race -timeout $(RACE_TIMEOUT) $(RACE_PKGS)

lint:
	$(GO) run ./cmd/trlint ./...

lint-json:
	$(GO) run ./cmd/trlint -json ./...

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkIntegerInference' -benchmem .
	$(GO) run ./cmd/trbench -bench

# benchcmp measures into a scratch file (results/BENCH_head.json is
# gitignored) so the committed baseline is never clobbered by the gate.
benchcmp:
	$(GO) run ./cmd/trbench -bench -force -bench-out results/BENCH_head.json -compare results/BENCH_intinfer.json

# The determinism test runs hermetically (TRQ_AUTOTUNE_CACHE in a test
# temp dir), so -count=1 is enough to exercise cold-measure + warm-load.
autotune-check:
	$(GO) test -count=1 -run 'TestAutotuneWarmCacheDeterminism' ./internal/intinfer
	$(GO) test -count=1 ./internal/kernels/autotune

serve-smoke:
	$(GO) run ./cmd/trserve -model mlp -smoke
	$(GO) run ./cmd/trserve -model mlp -budgets 12 -smoke

serve-bench:
	$(GO) run ./cmd/trserve -model mlp -selfload -duration 3s

# The soak holds every phase (strict and degrade, at every pool size up
# through 4 workers) to a p99 bound read from the server-side latency
# histogram; a few thousand requests land per phase at the default
# client count. The scratch output keeps the committed baseline intact.
serve-soak:
	$(GO) run ./cmd/trserve -model mlp -selfload -sweep 1,2,4 -duration 2s \
		-slo-p99 250ms -force -out results/BENCH_soak.json

# Every call of the handler fuzzer runs the server's worker goroutines,
# whose scheduling shifts coverage from call to call, so nearly every
# input reads as new and go test would spend the run minimizing
# kilobyte bodies; -fuzzminimizetime 0 keeps it fuzzing.
serve-fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeClassify$$' -fuzztime 30s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzNumeral$$' -fuzztime 30s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzClassifyHandler$$' -fuzztime 30s -fuzzminimizetime 0 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzClassify$$' -fuzztime 30s ./internal/intinfer

serve-race:
	$(GO) test -race -count=10 ./internal/serve

budget-bench:
	$(GO) run ./cmd/trbench -bench-budget

load-bench:
	$(GO) run ./cmd/trbench -bench-load

# perfbench is a Go module of its own (replace repro => ../), built
# offline; run.py builds trserve and the benchmark binary under
# .bench_build/. The binary prints its result as one JSON line last; a
# wrong served answer prints "correct":false, and a void run prints no
# result.
perfbench-check:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) test .
	@mkdir -p .bench_build
	python3 perfbench/run.py --workload closed_cnn --seed 1 --seconds 4 --trace 0 | tee .bench_build/perfbench-check.out
	grep -q '"correct":true' .bench_build/perfbench-check.out
	python3 perfbench/run.py --workload offline_mlp --seed 1 --seconds 4 --trace 0 | tee .bench_build/perfbench-check-mlp.out
	grep -q '"correct":true' .bench_build/perfbench-check-mlp.out
