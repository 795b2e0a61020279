package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// refGemvF64 is the obviously-correct reference for GemvF64: int64
// accumulation, round-half-to-even via the math library, then the clamp.
// GemvF64 (both the scalar loop and the AVX2 microkernel, whichever the
// host selects) must match it bit for bit.
func refGemvF64(dst []float64, a, x, bias []float64, m, k int, mult, lo, hi float64) {
	for r := 0; r < m; r++ {
		acc := int64(bias[r])
		for q := 0; q < k; q++ {
			acc += int64(a[r*k+q]) * int64(x[q])
		}
		v := math.RoundToEven(float64(acc) * mult)
		if v > hi {
			v = hi
		} else if v < lo {
			v = lo
		}
		dst[r] = v
	}
}

func randCodesF64(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(rng.Intn(255) - 127)
	}
	return out
}

func TestGemvF64MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// m sweeps past and around the 4-row blocking; k sweeps the 8-wide
	// vector stride, its tails, and the k<8 scalar-only case.
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 10, 64} {
		for _, k := range []int{1, 3, 7, 8, 9, 15, 16, 17, 64, 144, 150} {
			a := randCodesF64(rng, m*k)
			x := randCodesF64(rng, k)
			bias := randCodesF64(rng, m)
			for _, mult := range []float64{0.004, 0.07, 1.3} {
				got := make([]float64, m)
				want := make([]float64, m)
				GemvF64(got, a, x, bias, 0, m, k, mult, -127, 127)
				refGemvF64(want, a, x, bias, m, k, mult, -127, 127)
				for r := range want {
					if got[r] != want[r] {
						t.Fatalf("m=%d k=%d mult=%g row %d: got %v want %v",
							m, k, mult, r, got[r], want[r])
					}
				}
			}
		}
	}
}

func TestGemvF64FusedReLUWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, k := 9, 33
	a := randCodesF64(rng, m*k)
	x := randCodesF64(rng, k)
	bias := randCodesF64(rng, m)
	got := make([]float64, m)
	want := make([]float64, m)
	// A folded ReLU-with-cap window: [0, 31].
	GemvF64(got, a, x, bias, 0, m, k, 0.01, 0, 31)
	refGemvF64(want, a, x, bias, m, k, 0.01, 0, 31)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("row %d: got %v want %v", r, got[r], want[r])
		}
	}
	for r := range got {
		if got[r] < 0 || got[r] > 31 {
			t.Fatalf("row %d: %v escapes the [0,31] window", r, got[r])
		}
	}
}

func TestGemvF64PartialRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, k := 12, 40
	a := randCodesF64(rng, m*k)
	x := randCodesF64(rng, k)
	bias := randCodesF64(rng, m)
	full := make([]float64, m)
	refGemvF64(full, a, x, bias, m, k, 0.02, -127, 127)
	// Disjoint [r0, r1) ranges, as the intra-image row partitioning
	// issues them, must tile the full result.
	got := make([]float64, m)
	for _, span := range [][2]int{{0, 5}, {5, 6}, {6, 12}} {
		GemvF64(got, a, x, bias, span[0], span[1], k, 0.02, -127, 127)
	}
	for r := range full {
		if got[r] != full[r] {
			t.Fatalf("row %d: got %v want %v", r, got[r], full[r])
		}
	}
}

func TestDotF64(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, k := range []int{0, 1, 2, 3, 8, 17} {
		a := randCodesF64(rng, k)
		x := randCodesF64(rng, k)
		var want float64
		for i := range a {
			want += a[i] * x[i]
		}
		if got := DotF64(a, x); got != want {
			t.Fatalf("k=%d: got %v want %v", k, got, want)
		}
	}
}

func TestExactF64(t *testing.T) {
	if !ExactF64(1<<20, 127, 127, 1<<30) {
		t.Error("a million-deep int8 dot is exactly representable and must be admitted")
	}
	if ExactF64(1<<40, 127, 127, 0) {
		t.Error("a 2^53-crossing dot must be rejected")
	}
}

func TestIm2colGemmRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 20; trial++ {
		c := 1 + rng.Intn(4)
		h := 3 + rng.Intn(8)
		w := 3 + rng.Intn(8)
		kh := 1 + rng.Intn(3)
		kw := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		outC := 1 + rng.Intn(6)
		outH := (h+2*pad-kh)/stride + 1
		outW := (w+2*pad-kw)/stride + 1
		if outH < 1 || outW < 1 {
			continue
		}
		kk := c * kh * kw
		n := outH * outW
		src := randCodes(rng, c*h*w)
		wts := randCodes(rng, outC*kk)
		bias := randCodes(rng, outC)
		want := naiveConv(src, wts, bias, c, h, w, outC, kh, kw, stride, pad, outH, outW)

		col := make([]int32, kk*n)
		refIm2col(col, src, c, h, w, kh, kw, stride, pad, outH, outW)
		got := make([]int32, outC*n)
		Gemm(got, wts, col, bias, outC, n, kk)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (c=%d h=%d w=%d k=%dx%d s=%d p=%d outC=%d): element %d: gemm %d, naive %d",
					trial, c, h, w, kh, kw, stride, pad, outC, i, got[i], want[i])
			}
		}
	}
}
