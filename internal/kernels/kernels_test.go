package kernels

import (
	"math/rand"
	"testing"
)

// naiveConv is the direct 6-deep convolution loop over a single group,
// the anchor of the test references: refIm2col + Gemm must match it bit
// for bit, and the gather tables are pinned against refIm2col.
func naiveConv(src, w, bias []int32, c, h, wid, outC, kh, kw, stride, pad, outH, outW int) []int32 {
	out := make([]int32, outC*outH*outW)
	kk := c * kh * kw
	for oc := 0; oc < outC; oc++ {
		row := w[oc*kk : (oc+1)*kk]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				acc := bias[oc]
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= wid {
								continue
							}
							acc += row[(ci*kh+ky)*kw+kx] * src[(ci*h+iy)*wid+ix]
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out
}

func randCodes(rng *rand.Rand, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(255) - 127)
	}
	return out
}

func TestIm2colGemmMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type geom struct{ c, h, w, outC, kh, kw, stride, pad int }
	cases := []geom{
		{1, 5, 5, 3, 3, 3, 1, 1},
		{3, 8, 8, 8, 3, 3, 1, 1},
		{4, 7, 9, 5, 3, 3, 2, 1}, // non-square, strided
		{2, 6, 6, 4, 1, 1, 1, 0}, // 1x1
		{3, 9, 7, 6, 5, 3, 2, 2}, // non-square kernel, big pad
		{1, 4, 4, 2, 3, 3, 1, 0}, // no pad
	}
	for _, g := range cases {
		outH := (g.h+2*g.pad-g.kh)/g.stride + 1
		outW := (g.w+2*g.pad-g.kw)/g.stride + 1
		kk := g.c * g.kh * g.kw
		n := outH * outW
		src := randCodes(rng, g.c*g.h*g.w)
		w := randCodes(rng, g.outC*kk)
		bias := randCodes(rng, g.outC)
		want := naiveConv(src, w, bias, g.c, g.h, g.w, g.outC, g.kh, g.kw, g.stride, g.pad, outH, outW)

		col := make([]int32, kk*n)
		refIm2col(col, src, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, outH, outW)
		got := make([]int32, g.outC*n)
		Gemm(got, w, col, bias, g.outC, n, kk)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("geom %+v: element %d: gemm %d, naive %d", g, i, got[i], want[i])
			}
		}
	}
}

func TestGemmNilBiasAndOddRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8} {
		n, k := 6, 9
		a := randCodes(rng, m*k)
		b := randCodes(rng, k*n)
		got := make([]int32, m*n)
		Gemm(got, a, b, nil, m, n, k)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want int32
				for q := 0; q < k; q++ {
					want += a[i*k+q] * b[q*n+j]
				}
				if got[i*n+j] != want {
					t.Fatalf("m=%d (%d,%d): got %d want %d", m, i, j, got[i*n+j], want)
				}
			}
		}
	}
}

// Gemm is the scalar int32 GEMM reference the packed kernels are pinned
// against: dst = bias ⊕ A·B where A is m×k (weights, row-major), B is
// k×n (im2col patches, row-major) and dst is m×n; bias[i] seeds every
// element of row i (bias may be nil for a zero seed). It is blocked
// four output rows at a time. Accumulation is int32, so callers keep
// k·|w|·|x| + |bias| within int32.
func Gemm(dst, a, b, bias []int32, m, n, k int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		d0 := dst[(i+0)*n:][:n]
		d1 := dst[(i+1)*n:][:n]
		d2 := dst[(i+2)*n:][:n]
		d3 := dst[(i+3)*n:][:n]
		var b0, b1, b2, b3 int32
		if bias != nil {
			b0, b1, b2, b3 = bias[i], bias[i+1], bias[i+2], bias[i+3]
		}
		for j := 0; j < n; j++ {
			d0[j], d1[j], d2[j], d3[j] = b0, b1, b2, b3
		}
		a0 := a[(i+0)*k:][:k]
		a1 := a[(i+1)*k:][:k]
		a2 := a[(i+2)*k:][:k]
		a3 := a[(i+3)*k:][:k]
		for q := 0; q < k; q++ {
			w0, w1, w2, w3 := a0[q], a1[q], a2[q], a3[q]
			if w0 == 0 && w1 == 0 && w2 == 0 && w3 == 0 {
				continue
			}
			brow := b[q*n:][:n]
			for j := 0; j < n; j++ {
				x := brow[j]
				d0[j] += w0 * x
				d1[j] += w1 * x
				d2[j] += w2 * x
				d3[j] += w3 * x
			}
		}
	}
	for ; i < m; i++ {
		d := dst[i*n:][:n]
		var bi int32
		if bias != nil {
			bi = bias[i]
		}
		for j := 0; j < n; j++ {
			d[j] = bi
		}
		ar := a[i*k:][:k]
		for q := 0; q < k; q++ {
			w := ar[q]
			if w == 0 {
				continue
			}
			brow := b[q*n:][:n]
			for j := 0; j < n; j++ {
				d[j] += w * brow[j]
			}
		}
	}
}
