package kernels

import "strconv"

// TuneVersion identifies the packed-kernel generation for the autotune
// disk cache (internal/kernels/autotune). Bump it whenever a change to
// the packed kernels, panel layouts, or the blocked drivers below could
// shift the performance ranking of tiles — stale picks are then ignored
// because the cache file name embeds the version. Version 2: conv picks
// time the row driver over a gathered B and tune MR alone. Version 3:
// conv picks are keyed at the batched lane's column count, and every
// pick is timed over repeated runs and kept only with a clear lead over
// the unblocked tile.
const TuneVersion = 3

// Tile is the blocking geometry of one packed-GEMM invocation. The
// fields never change arithmetic — every output element accumulates its
// full k depth in registers in a fixed order regardless of blocking, so
// any Tile produces bit-identical results — they only reorder memory
// traversal, which is what lets the autotuner pick by time alone.
//
//	MR: output-row block in rows (multiple of 4, the panel height). The
//	    blocked driver walks row panels in MR-row groups, keeping each
//	    A block resident while the packed B panels stream past.
//	KC: k-stripe height (even, the tap-pair depth) of the PackBBlocked
//	    traversal: source rows are revisited stripe by stripe while
//	    their cache lines are hot.
//	NR: column block in columns (multiple of 16, the panel width) of
//	    the PackBBlocked traversal; combined with KC it bounds the
//	    source window one packing pass touches.
//
// NR and KC steer PackBBlocked only, so they matter to the packed
// linear lane; a conv's B comes from its gather table and its tile
// carries MR alone. The zero value (all fields 0) means "unblocked":
// whole-matrix traversals, exactly the behaviour of PackB + Gemm8Rows.
type Tile struct {
	MR, NR, KC int
}

// String renders the tile for cache files and logs.
func (t Tile) String() string {
	if t == (Tile{}) {
		return "unblocked"
	}
	return "mr" + strconv.Itoa(t.MR) + ":nr" + strconv.Itoa(t.NR) +
		":kc" + strconv.Itoa(t.KC)
}

// Normalize clamps a tile to the legal blocking grid of an m×n×k
// problem: MR to whole 4-row panels within m, NR to whole 16-column
// panels within n, KC to whole tap pairs within k. A field that is
// unset, out of range, or covers the whole dimension collapses to 0
// (unblocked), so equivalent tiles compare equal — the autotuner
// deduplicates candidates on the normalized form.
func (t Tile) Normalize(m, n, k int) Tile {
	norm := func(v, unit, limit int) int {
		if v <= 0 {
			return 0
		}
		v -= v % unit
		if v < unit {
			v = unit
		}
		if v >= limit {
			return 0
		}
		return v
	}
	return Tile{
		MR: norm(t.MR, 4, m),
		NR: norm(t.NR, 16, n),
		KC: norm(t.KC, 2, k),
	}
}

// RowPanels converts a tile's MR (rows) into the row-panel block the
// drivers iterate by, over a matrix of mp total panels: 0 (unblocked)
// or an MR covering every row yields mp.
func RowPanels(mr, mp int) int {
	if mr <= 0 {
		return mp
	}
	p := mr / 4
	if p < 1 {
		p = 1
	}
	if p > mp {
		p = mp
	}
	return p
}

// Gemm8Blocks is the single-threaded row driver over an already-packed
// B: it computes the m×n result's row panels in blocks of mr rows
// (RowPanels), keeping each A block resident while the B panels stream
// past. Output is bit-identical to Gemm8Rows over all panels for every
// mr. This is the loop a conv step runs after its gather and the loop
// the autotuner times for conv geometries.
func Gemm8Blocks(dst []int32, pa *PackedA, pb []uint8, n, mr int, mult float64, lo, hi int32) {
	mrp := RowPanels(mr, pa.MP)
	for p0 := 0; p0 < pa.MP; p0 += mrp {
		p1 := p0 + mrp
		if p1 > pa.MP {
			p1 = pa.MP
		}
		Gemm8Rows(dst, pa, pb, n, p0, p1, mult, lo, hi)
	}
}

// Gemm8Tuned is the blocked driver of the packed linear lane: it packs
// the k×n offset-u8 matrix u8 into pb with the tile's (NR, KC)
// traversal, then runs Gemm8Blocks with the tile's MR. Output is
// bit-identical to PackB + Gemm8Rows for every tile (blocking only
// reorders traversal); it is the exact loop the autotuner times for
// linear geometries. pb must hold PackBSize(pa.K, n) bytes and dst m×n
// int32s.
func Gemm8Tuned(dst []int32, pa *PackedA, u8, pb []uint8, n int, t Tile, mult float64, lo, hi int32) {
	PackBBlocked(pb, u8, pa.K, n, t.NR, t.KC)
	Gemm8Blocks(dst, pa, pb, n, t.MR, mult, lo, hi)
}
