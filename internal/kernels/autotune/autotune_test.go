package autotune

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
)

// withCache points the tuner at a private cache file under the test's
// temp dir and drops the in-memory state, so every test starts as a
// cold process with an empty disk.
func withCache(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "autotune.json")
	t.Setenv("TRQ_AUTOTUNE_CACHE", path)
	t.Setenv("TRQ_AUTOTUNE", "")
	Reset()
	t.Cleanup(Reset)
	return path
}

func TestPickPersistsAcrossProcesses(t *testing.T) {
	path := withCache(t)
	reg := obs.New()
	SetObs(reg)
	defer SetObs(nil)
	measuredC := reg.Counter("trq_kernels_autotune_total", "outcome", "measured")
	hitsC := reg.Counter("trq_kernels_autotune_total", "outcome", "hit")
	nsC := reg.Counter("trq_kernels_autotune_measure_ns_total")

	g := Geometry{M: 8, K: 16, N: 4}
	first := Pick(g)
	if measuredC.Value() != 1 || hitsC.Value() != 0 {
		t.Fatalf("cold pick: measured=%d hits=%d, want 1/0", measuredC.Value(), hitsC.Value())
	}
	if nsC.Value() <= 0 {
		t.Fatal("cold pick recorded no measurement time")
	}

	var c cacheData
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("cache file is not JSON: %v", err)
	}
	if c.Version != kernels.TuneVersion || len(c.Tiles) != 1 {
		t.Fatalf("cache file: version=%d tiles=%d, want %d/1", c.Version, len(c.Tiles), kernels.TuneVersion)
	}

	// Fresh "process": the pick must come off disk, identically, with
	// zero additional microbenchmark time — the warm-start guarantee.
	Reset()
	warmNs := nsC.Value()
	second := Pick(g)
	if second != first {
		t.Fatalf("warm pick %v differs from cold pick %v", second, first)
	}
	if measuredC.Value() != 1 || hitsC.Value() != 1 {
		t.Fatalf("warm pick: measured=%d hits=%d, want 1/1", measuredC.Value(), hitsC.Value())
	}
	if nsC.Value() != warmNs {
		t.Fatal("warm pick spent measurement time")
	}
}

func TestStaleVersionRemeasured(t *testing.T) {
	path := withCache(t)
	bogus := kernels.Tile{MR: 999, NR: 999, KC: 999}
	stale := cacheData{Version: kernels.TuneVersion + 1,
		Tiles: map[string]kernels.Tile{key(Geometry{M: 8, K: 16, N: 4}): bogus}}
	data, _ := json.Marshal(stale)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := Pick(Geometry{M: 8, K: 16, N: 4}); got == bogus {
		t.Fatal("stale-version cache entry was trusted")
	}
	var c cacheData
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if json.Unmarshal(data, &c) != nil || c.Version != kernels.TuneVersion {
		t.Fatalf("rewritten cache has version %d, want %d", c.Version, kernels.TuneVersion)
	}
}

func TestCorruptCacheTolerated(t *testing.T) {
	path := withCache(t)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := Geometry{M: 4, K: 8, N: 2}
	first := Pick(g)
	Reset()
	if second := Pick(g); second != first {
		t.Fatalf("after corrupt-cache recovery: %v != %v", second, first)
	}
}

func TestDisabledEnv(t *testing.T) {
	path := withCache(t)
	t.Setenv("TRQ_AUTOTUNE", "off")
	if got := Pick(Geometry{M: 8, K: 16, N: 4}); got != (kernels.Tile{}) {
		t.Fatalf("disabled tuner picked %v, want unblocked", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("disabled tuner touched the cache file")
	}
}

// TestConcurrentPicks hammers Pick from many goroutines across a few
// geometries — the shape of parallel plan builds — under the race
// detector, and checks every goroutine saw the same pick per geometry.
func TestConcurrentPicks(t *testing.T) {
	withCache(t)
	geos := []Geometry{{M: 8, K: 16, N: 4}, {M: 4, K: 8, N: 2}, {M: 12, K: 10, N: 6}}
	picks := make([][]kernels.Tile, len(geos))
	for i := range picks {
		picks[i] = make([]kernels.Tile, 4)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, g := range geos {
				picks[i][w] = Pick(g)
			}
		}(w)
	}
	wg.Wait()
	for i := range picks {
		for w := 1; w < len(picks[i]); w++ {
			if picks[i][w] != picks[i][0] {
				t.Fatalf("geometry %d: worker %d picked %v, worker 0 picked %v",
					i, w, picks[i][w], picks[i][0])
			}
		}
	}
}

// TestSaveMergesForeignEntries: entries another process wrote between
// our load and our save must survive the read-merge-write.
func TestSaveMergesForeignEntries(t *testing.T) {
	path := withCache(t)
	foreign := cacheData{Version: kernels.TuneVersion,
		Tiles: map[string]kernels.Tile{"otherbox|m1.k2.n3": {MR: 8}}}
	data, _ := json.Marshal(foreign)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Simulate "loaded before the foreign write": force the loaded flag
	// without reading the file, then measure something.
	mu.Lock()
	mem = make(map[string]kernels.Tile)
	loaded = true
	mu.Unlock()
	Pick(Geometry{M: 4, K: 8, N: 2})

	var c cacheData
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Tiles["otherbox|m1.k2.n3"]; !ok {
		t.Fatal("foreign cache entry lost in read-merge-write")
	}
	if len(c.Tiles) != 2 {
		t.Fatalf("cache has %d entries, want 2", len(c.Tiles))
	}
}

// TestConvPicksKeyedApart: a conv geometry is timed on a different loop
// (row driver over a packed B) than a linear of the same M×K×N, so the
// two picks are cached under separate keys, and a conv pick tunes MR
// alone — its packing knobs stay unblocked.
func TestConvPicksKeyedApart(t *testing.T) {
	path := withCache(t)
	reg := obs.New()
	SetObs(reg)
	defer SetObs(nil)
	measuredC := reg.Counter("trq_kernels_autotune_total", "outcome", "measured")

	lin := Geometry{M: 64, K: 144, N: 64}
	conv := lin
	conv.Conv = true
	if key(lin) == key(conv) {
		t.Fatalf("conv and linear share cache key %q", key(conv))
	}
	Pick(lin)
	ct := Pick(conv)
	if measuredC.Value() != 2 {
		t.Fatalf("measured %d geometries, want 2 (conv must not reuse the linear pick)", measuredC.Value())
	}
	if ct.NR != 0 || ct.KC != 0 {
		t.Fatalf("conv pick %v tunes packing knobs a conv never runs", ct)
	}
	var c cacheData
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Tiles) != 2 {
		t.Fatalf("cache holds %d entries, want 2", len(c.Tiles))
	}
}

// TestChooseKeepsUnblockedWithoutClearLead pins the pick rule on
// synthetic timings: a candidate must beat the unblocked tile by more
// than pickMargin to replace it.
func TestChooseKeepsUnblockedWithoutClearLead(t *testing.T) {
	unblocked := kernels.Tile{}
	mr8 := kernels.Tile{MR: 8}
	mr16 := kernels.Tile{MR: 16}
	cases := []struct {
		name   string
		scores []score
		want   kernels.Tile
	}{
		{"3% lead", []score{{unblocked, 100}, {mr8, 97}}, unblocked},
		{"10% lead", []score{{unblocked, 100}, {mr8, 90}}, mr8},
		{"tie", []score{{unblocked, 100}, {mr8, 100}}, unblocked},
		{"unblocked fastest", []score{{unblocked, 100}, {mr8, 120}}, unblocked},
		{"fastest of several", []score{{unblocked, 100}, {mr8, 92}, {mr16, 85}}, mr16},
		{"only unblocked", []score{{unblocked, 100}}, unblocked},
	}
	for _, c := range cases {
		if got := choose(c.scores); got != c.want {
			t.Errorf("%s: choose picked %v, want %v", c.name, got, c.want)
		}
	}
}
