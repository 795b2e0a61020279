// Package autotune turns the packed-GEMM tile geometry into a measured
// decision. At plan build, Pick microbenchmarks a small candidate set
// of (MR, NR, KC) tiles (MR alone for convs) on a synthetic problem of
// the layer's exact geometry — any tile is bit-identical (see
// kernels.Tile), so timing is the only axis — and keeps the unblocked
// tile unless a candidate beats it by a clear margin (choose). The pick
// is memoized in process and persisted to a small JSON cache on disk
// keyed by
// (kernels.Features(), geometry) and versioned by kernels.TuneVersion,
// so repeat plan builds — including trserve cold starts — pay a map
// lookup instead of a measurement.
//
// Environment knobs:
//
//	TRQ_AUTOTUNE=off        disable tuning; every Pick returns the
//	                        unblocked tile (the pre-tuning behaviour)
//	TRQ_AUTOTUNE_CACHE=path override the cache file location (the
//	                        default is os.UserCacheDir()/trq/
//	                        autotune-v<TuneVersion>.json)
//
// Deleting the cache file (or bumping kernels.TuneVersion, which
// changes the file name) invalidates every stored pick.
package autotune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/obs"
)

// Geometry identifies one packed-GEMM shape: an M×K weight matrix
// against a K×N activation matrix. N is the batch/spatial width the
// plan will actually run (outH·outW for convs, the micro-batch column
// count for linears).
//
// Conv marks a conv step, whose B arrives already packed by its gather
// table: only MR is tuned, timed on the row driver alone, and the pick
// is keyed apart from a linear of the same M×K×N, whose timed loop also
// packs B.
type Geometry struct {
	M, K, N int
	Conv    bool
}

// candidates is the tile set Pick measures, ordered cheapest-to-try
// first; the unblocked tile leads so a tie preserves the pre-tuning
// behaviour. A conv geometry keeps only each candidate's MR. Candidates
// that normalize to the same legal tile for a given geometry are
// measured once.
var candidates = []kernels.Tile{
	{}, // unblocked: whole-matrix traversals
	{MR: 8},
	{MR: 16},
	{MR: 8, NR: 64, KC: 128},
	{MR: 16, NR: 128, KC: 256},
	{MR: 32, NR: 256, KC: 512},
}

// Each candidate is scored as the minimum over measureReps timed reps
// (after one warmup run), which rejects scheduler noise better than the
// mean. A rep loops the candidate for at least repMin of wall time, so
// a µs-sized problem is timed over hundreds of runs instead of one.
const (
	measureReps = 3
	repMin      = 2 * time.Millisecond
)

// pickMargin is the lead a candidate needs over the unblocked tile to
// replace it: its time per run must be below (1 − pickMargin) times the
// unblocked tile's. Cold caches otherwise persist whichever tile the
// noise favoured.
const pickMargin = 0.05

var (
	mu sync.Mutex
	//trlint:guarded-by(mu)
	mem map[string]kernels.Tile
	//trlint:guarded-by(mu)
	loaded bool

	hits      *obs.Counter
	measured  *obs.Counter
	disabled  *obs.Counter
	measureNs *obs.Counter
)

// SetObs wires (or, with nil, unwires) the tuner's counters:
// trq_kernels_autotune_total{outcome=hit|measured|disabled} and
// trq_kernels_autotune_measure_ns_total, the cumulative wall time spent
// microbenchmarking (a warm cache keeps it at zero across a plan
// build — the acceptance signal for the disk cache).
func SetObs(r *obs.Registry) {
	if r == nil {
		hits, measured, disabled, measureNs = nil, nil, nil, nil
		return
	}
	r.Help("trq_kernels_autotune_total", "tile lookups by outcome")
	hits = r.Counter("trq_kernels_autotune_total", "outcome", "hit")
	measured = r.Counter("trq_kernels_autotune_total", "outcome", "measured")
	disabled = r.Counter("trq_kernels_autotune_total", "outcome", "disabled")
	r.Help("trq_kernels_autotune_measure_ns_total", "wall time spent microbenchmarking tiles")
	measureNs = r.Counter("trq_kernels_autotune_measure_ns_total")
}

// Pick returns the tile to run geometry g with: a cached pick when one
// exists (in memory or on disk), otherwise the winner of a one-time
// microbenchmark, which is then persisted. Safe for concurrent use;
// measurement runs under the package lock, so concurrent plan builds
// tune a given geometry once.
func Pick(g Geometry) kernels.Tile {
	if os.Getenv("TRQ_AUTOTUNE") == "off" {
		disabled.Inc()
		return kernels.Tile{}
	}
	mu.Lock()
	defer mu.Unlock()
	if !loaded {
		mem = make(map[string]kernels.Tile)
		loadLocked()
		loaded = true
	}
	k := key(g)
	if t, ok := mem[k]; ok {
		hits.Inc()
		return t
	}
	t := measure(g)
	mem[k] = t
	saveLocked()
	measured.Inc()
	return t
}

// Reset drops the in-memory cache (not the disk file), so the next Pick
// reloads from disk — tests use it to simulate a fresh process.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	mem = nil
	loaded = false
}

// key identifies a pick: CPU features first (a cache file copied across
// machines must not leak picks across kernel tiers), then geometry.
func key(g Geometry) string {
	fs := kernels.Features()
	tier := "portable"
	if len(fs) > 0 {
		tier = strings.Join(fs, "+")
	}
	lane := ""
	if g.Conv {
		lane = "conv."
	}
	return fmt.Sprintf("%s|%sm%d.k%d.n%d", tier, lane, g.M, g.K, g.N)
}

// measure times every distinct normalized candidate on a synthetic
// problem of geometry g and returns choose's pick. A conv geometry
// times Gemm8Blocks over a B packed once up front, across the
// candidates' MR values; a linear geometry times Gemm8Tuned, packing
// included. The inputs are deterministic (no RNG, no time dependence)
// but the timings of course are not — which is fine, because every
// candidate computes bit-identical results and the pick is persisted,
// so a process with a warm cache is fully deterministic.
func measure(g Geometry) kernels.Tile {
	start := time.Now()
	defer func() { measureNs.Add(time.Since(start).Nanoseconds()) }()

	w := make([]int32, g.M*g.K)
	for i := range w {
		w[i] = int32(i*37%255) - 127
	}
	bias := make([]int32, g.M)
	for i := range bias {
		bias[i] = int32(i%1024) - 512
	}
	pa := kernels.PackA(w, bias, g.M, g.K)
	u8 := make([]uint8, g.K*g.N)
	for i := range u8 {
		u8[i] = uint8(1 + i*89%255)
	}
	pb := make([]uint8, kernels.PackBSize(g.K, g.N))
	kernels.PackB(pb, u8, g.K, g.N)
	dst := make([]int32, g.M*g.N)
	const mult = 1.0 / 512
	run := func(t kernels.Tile) {
		if g.Conv {
			kernels.Gemm8Blocks(dst, pa, pb, g.N, t.MR, mult, -127, 127)
		} else {
			kernels.Gemm8Tuned(dst, pa, u8, pb, g.N, t, mult, -127, 127)
		}
	}

	var scores []score
	seen := make(map[kernels.Tile]bool, len(candidates))
	for _, cand := range candidates {
		if g.Conv {
			cand = kernels.Tile{MR: cand.MR}
		}
		t := cand.Normalize(g.M, g.N, g.K)
		if seen[t] {
			continue
		}
		seen[t] = true
		scores = append(scores, score{t, perRun(func() { run(t) })})
	}
	return choose(scores)
}

// score is one candidate's measured time per run, in nanoseconds.
type score struct {
	tile kernels.Tile
	ns   float64
}

// choose is the pick rule over measured scores, scores[0] being the
// unblocked tile (candidates leads with it): the fastest candidate
// replaces the unblocked tile only when it leads by more than
// pickMargin. A tie or a narrower lead keeps the unblocked tile.
func choose(scores []score) kernels.Tile {
	best := scores[0]
	for _, sc := range scores[1:] {
		if sc.ns < best.ns {
			best = sc
		}
	}
	if best.ns < scores[0].ns*(1-pickMargin) {
		return best.tile
	}
	return scores[0].tile
}

// perRun times f: one warmup run, then the run count n that fills
// repMin, then the minimum time per run over measureReps reps of n runs.
func perRun(f func()) float64 {
	f()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= repMin {
			break
		}
		n *= 2
	}
	best := 0.0
	for rep := 0; rep < measureReps; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if ns := float64(time.Since(t0).Nanoseconds()) / float64(n); rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// cacheFile is the on-disk location; "" means memory-only (no home
// directory, e.g. a locked-down CI sandbox).
func cacheFile() string {
	if p := os.Getenv("TRQ_AUTOTUNE_CACHE"); p != "" {
		return p
	}
	dir, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(dir, "trq",
		fmt.Sprintf("autotune-v%d.json", kernels.TuneVersion))
}

// cacheData is the JSON schema of the cache file. Version is stored
// redundantly with the file name so a TRQ_AUTOTUNE_CACHE override (a
// fixed name) still invalidates on a kernel-version bump.
type cacheData struct {
	Version int                     `json:"version"`
	Tiles   map[string]kernels.Tile `json:"tiles"`
}

// loadLocked merges the disk cache into mem. Any failure — missing
// file, unreadable, corrupt JSON, stale version — degrades to an empty
// cache: picks are then re-measured and the file rewritten.
//
//trlint:holds(mu)
func loadLocked() {
	path := cacheFile()
	if path == "" {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var c cacheData
	if json.Unmarshal(data, &c) != nil || c.Version != kernels.TuneVersion {
		return
	}
	for k, t := range c.Tiles {
		mem[k] = t
	}
}

// saveLocked persists mem read-merge-write: entries written by a
// concurrent process since our load are folded in (ours win on
// conflict — both are valid picks), and the write goes through a temp
// file + rename so readers never see a torn file. Failures are
// silently memory-only; tuning is an optimization, not a dependency.
//
//trlint:holds(mu)
func saveLocked() {
	path := cacheFile()
	if path == "" {
		return
	}
	c := cacheData{Version: kernels.TuneVersion,
		Tiles: make(map[string]kernels.Tile, len(mem))}
	if data, err := os.ReadFile(path); err == nil {
		var old cacheData
		if json.Unmarshal(data, &old) == nil && old.Version == kernels.TuneVersion {
			for k, t := range old.Tiles {
				c.Tiles[k] = t
			}
		}
	}
	for k, t := range mem {
		c.Tiles[k] = t
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	data, err := json.Marshal(c)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".autotune-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()           //trlint:checked best-effort cleanup; the write already failed
		os.Remove(tmp.Name()) //trlint:checked best-effort cleanup; the write already failed
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //trlint:checked best-effort cleanup; the close already failed
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name()) //trlint:checked best-effort cleanup; the cache stays memory-only
	}
}
