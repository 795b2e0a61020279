package kernels

import (
	"math"
	"math/rand"
	"testing"
)

func TestTileNormalize(t *testing.T) {
	cases := []struct {
		in      Tile
		m, n, k int
		want    Tile
	}{
		{Tile{}, 64, 64, 64, Tile{}},
		{Tile{MR: 8, NR: 64, KC: 128}, 256, 256, 512, Tile{MR: 8, NR: 64, KC: 128}},
		{Tile{MR: 7, NR: 17, KC: 3}, 256, 256, 512, Tile{MR: 4, NR: 16, KC: 2}}, // rounded to units
		{Tile{MR: 64, NR: 256, KC: 512}, 8, 32, 16, Tile{}},                     // covers whole dims
		{Tile{MR: 8, NR: 64, KC: 128}, 8, 64, 128, Tile{}},                      // exactly whole dims
		{Tile{MR: -4, NR: -16, KC: -2}, 256, 256, 512, Tile{}},                  // negatives unset
		{Tile{MR: 1, NR: 1, KC: 1}, 256, 256, 512, Tile{MR: 4, NR: 16, KC: 2}},  // below one unit
		{Tile{MR: 8, NR: 300, KC: 64}, 64, 128, 32, Tile{MR: 8, NR: 0, KC: 0}},  // per-field collapse
	}
	for _, c := range cases {
		if got := c.in.Normalize(c.m, c.n, c.k); got != c.want {
			t.Errorf("%v.Normalize(%d,%d,%d) = %v, want %v", c.in, c.m, c.n, c.k, got, c.want)
		}
	}
	if s := (Tile{}).String(); s != "unblocked" {
		t.Errorf("zero tile renders %q", s)
	}
	if s := (Tile{MR: 8, NR: 64, KC: 128}).String(); s != "mr8:nr64:kc128" {
		t.Errorf("tile renders %q", s)
	}
}

func TestRowPanels(t *testing.T) {
	cases := []struct{ mr, mp, want int }{
		{0, 7, 7},  // unblocked: one pass over everything
		{8, 7, 2},  // 8 rows = 2 panels
		{4, 7, 1},  // one panel at a time
		{2, 7, 1},  // sub-panel MR still advances
		{64, 7, 7}, // larger than the matrix clamps
	}
	for _, c := range cases {
		if got := RowPanels(c.mr, c.mp); got != c.want {
			t.Errorf("RowPanels(%d, %d) = %d, want %d", c.mr, c.mp, got, c.want)
		}
	}
}

// TestPackBBlockedMatchesPackB pins the byte-identity the tuner rests
// on: every (NR, KC) traversal writes exactly the bytes of the
// unblocked pack, across odd/even k and every n%16 remainder.
func TestPackBBlockedMatchesPackB(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tiles := [][2]int{{0, 0}, {16, 2}, {16, 0}, {0, 2}, {32, 6}, {64, 128}, {48, 10}}
	for _, k := range []int{1, 2, 7, 27, 130} {
		for _, n := range []int{1, 15, 16, 17, 33, 64} {
			src := make([]uint8, k*n)
			for i := range src {
				src[i] = uint8(1 + rng.Intn(255))
			}
			want := make([]uint8, PackBSize(k, n))
			PackB(want, src, k, n)
			for _, tile := range tiles {
				got := make([]uint8, PackBSize(k, n))
				for i := range got {
					got[i] = 0xAA // canary: every byte must be written
				}
				PackBBlocked(got, src, k, n, tile[0], tile[1])
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d n=%d nr=%d kc=%d: byte %d: blocked=%#x, want %#x",
							k, n, tile[0], tile[1], i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGemm8TunedMatchesGemmRequant runs the full blocked driver — the
// loop the autotuner times and the executor's single-threaded path —
// against the scalar Gemm + requant reference for every candidate-shaped
// tile across edge geometries. Bit-identical results for every tile is
// the property that lets the tuner pick by time alone.
func TestGemm8TunedMatchesGemmRequant(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	tiles := []Tile{
		{}, {MR: 8}, {MR: 16}, {MR: 4, NR: 16, KC: 2},
		{MR: 8, NR: 64, KC: 128}, {MR: 32, NR: 256, KC: 512},
	}
	for _, m := range []int{1, 5, 12, 30} {
		for _, n := range []int{1, 17, 64} {
			for _, k := range []int{3, 27, 64} {
				w := randCodes(rng, m*k)
				bias := randCodes(rng, m)
				x := randCodes(rng, k*n)
				mult := 1.0 / float64(1+rng.Intn(200))
				lo, hi := int32(-127), int32(127)
				if rng.Intn(2) == 0 {
					lo = 0
				}
				ref := make([]int32, m*n)
				Gemm(ref, w, x, bias, m, n, k)
				for i, v := range ref {
					ref[i] = refRequant(v, mult, lo, hi)
				}

				pa := PackA(w, bias, m, k)
				xu := make([]uint8, k*n)
				OffsetU8(xu, x)
				pb := make([]uint8, PackBSize(k, n))
				got := make([]int32, m*n)
				for _, tile := range tiles {
					for i := range got {
						got[i] = math.MinInt32
					}
					Gemm8Tuned(got, pa, xu, pb, n, tile, mult, lo, hi)
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("m=%d n=%d k=%d tile=%v: element %d: tuned=%d, ref=%d",
								m, n, k, tile, i, got[i], ref[i])
						}
					}
				}
			}
		}
	}
}
