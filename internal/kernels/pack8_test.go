package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// refRequant is the scalar requantization the packed path fuses: the
// same float64 multiply, magic-constant round and clamp sequence as
// intinfer's requant.
func refRequant(acc int32, mult float64, lo, hi int32) int32 {
	f := float64(acc)*mult + roundMagic - roundMagic
	flo, fhi := float64(lo), float64(hi)
	if f > fhi {
		f = fhi
	} else if f < flo {
		f = flo
	}
	return int32(f)
}

// TestGemm8RowsMatchesGemmRequant is the golden identity the packed
// path rests on: for every m%4 × n%16 edge remainder and odd/even k,
// PackA + PackB + Gemm8Rows must equal Gemm followed by scalar
// requantization, bit for bit. On AVX2 hardware this exercises the
// assembly tile; elsewhere the portable twin — both must pass.
func TestGemm8RowsMatchesGemmRequant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ms := []int{4, 5, 6, 7, 12}    // every m%4 remainder
	ns := []int{16, 17, 30, 33, 1} // every n%16 remainder incl. the gemv shape
	ks := []int{1, 2, 9, 27, 64}   // odd and even depths
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				w := randCodes(rng, m*k)
				bias := make([]int32, m)
				for i := range bias {
					bias[i] = int32(rng.Intn(20001) - 10000)
				}
				x := randCodes(rng, k*n)

				// Reference: scalar GEMM then scalar requant.
				mult := 1.0 / float64(1+rng.Intn(200))
				lo, hi := int32(-127), int32(127)
				if rng.Intn(2) == 0 {
					lo = 0 // fused-ReLU window
				}
				ref := make([]int32, m*n)
				Gemm(ref, w, x, bias, m, n, k)
				for i, v := range ref {
					ref[i] = refRequant(v, mult, lo, hi)
				}

				// Packed path.
				pa := PackA(w, bias, m, k)
				xu := make([]uint8, k*n)
				OffsetU8(xu, x)
				pb := make([]uint8, PackBSize(k, n))
				PackB(pb, xu, k, n)
				got := make([]int32, m*n)
				Gemm8Rows(got, pa, pb, n, 0, pa.MP, mult, lo, hi)

				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("m=%d n=%d k=%d: element %d: packed=%d, ref=%d",
							m, n, k, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestGemm8RowsPanelPartition checks that disjoint panel ranges compose
// to the full result — the property InferBatchParallel's intra-image
// row partitioning relies on.
func TestGemm8RowsPanelPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, n, k := 11, 35, 18
	w := randCodes(rng, m*k)
	bias := randCodes(rng, m)
	x := randCodes(rng, k*n)
	pa := PackA(w, bias, m, k)
	xu := make([]uint8, k*n)
	OffsetU8(xu, x)
	pb := make([]uint8, PackBSize(k, n))
	PackB(pb, xu, k, n)
	mult, lo, hi := 0.031, int32(-127), int32(127)

	whole := make([]int32, m*n)
	Gemm8Rows(whole, pa, pb, n, 0, pa.MP, mult, lo, hi)

	parts := make([]int32, m*n)
	for p := 0; p < pa.MP; p++ {
		Gemm8Rows(parts, pa, pb, n, p, p+1, mult, lo, hi)
	}
	for i := range whole {
		if whole[i] != parts[i] {
			t.Fatalf("element %d: whole=%d, per-panel=%d", i, whole[i], parts[i])
		}
	}
}

// TestPackACompensation pins the u8-offset identity at the pack level:
// the packed bias must be bias − 128·Σw per row, and BiasMax must track
// its largest magnitude before saturation.
func TestPackACompensation(t *testing.T) {
	w := []int32{1, -2, 3, 0, 127, -127} // rows: Σ=2, Σ=0
	bias := []int32{10, -5}
	pa := PackA(w, bias, 2, 3)
	if pa.bias[0] != 10-128*2 || pa.bias[1] != -5 {
		t.Fatalf("compensated bias = %v, want [%d %d]", pa.bias[:2], 10-128*2, -5)
	}
	if want := int64(128*2 - 10); pa.BiasMax() != want {
		t.Fatalf("BiasMax = %d, want %d", pa.BiasMax(), want)
	}
	// Padded rows (m=2 → one 4-row panel) must carry zero weights and bias.
	if pa.MP != 1 || pa.KQ != 2 {
		t.Fatalf("MP=%d KQ=%d, want 1, 2", pa.MP, pa.KQ)
	}
	for _, b := range pa.bias[2:] {
		if b != 0 {
			t.Fatalf("pad bias = %d, want 0", b)
		}
	}
	// Odd-k pad tap: entries at q=2 (pair 1 slot 1) must be zero.
	for r := 0; r < 4; r++ {
		if pa.data[1*8+r*2+1] != 0 {
			t.Fatalf("row %d pad tap nonzero", r)
		}
	}
}

// TestAccumFitsU8 pins the admission bound at both edges.
func TestAccumFitsU8(t *testing.T) {
	if !AccumFitsU8(27, 127, 1<<20) {
		t.Fatal("small conv geometry must fit")
	}
	k := int(math.MaxInt32 / (255 * 127))
	if !AccumFitsU8(k, 127, 0) {
		t.Fatal("bound must admit k at the limit")
	}
	if AccumFitsU8(k+1, 127, 0) {
		t.Fatal("bound must reject k just past the limit")
	}
}

// packedIm2col is the two-pass reference the gather replaces:
// PackB(OffsetU8(refIm2col(src))).
func packedIm2col(src []int32, c, h, w, kh, kw, stride, pad, outH, outW int) []uint8 {
	k, n := c*kh*kw, outH*outW
	col := make([]int32, k*n)
	refIm2col(col, src, c, h, w, kh, kw, stride, pad, outH, outW)
	u8 := make([]uint8, k*n)
	OffsetU8(u8, col)
	pb := make([]uint8, PackBSize(k, n))
	PackB(pb, u8, k, n)
	return pb
}

// TestConvGatherMatchesIm2colPackB pins the gather table byte for byte
// against the two-pass reference over a geometry grid: strides 1–3,
// pads 0–2, kernels 1/3/5 (and two non-square ones), odd and even
// c·kh·kw, n off the 16-column grid, non-square inputs, and each
// group's slice of a two-group input.
// One stage and one destination serve every case, so stale bytes from
// a larger earlier pack must never leak into a smaller one.
func TestConvGatherMatchesIm2colPackB(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	stage := new(GatherStage)
	dst := make([]uint8, 1<<16)
	cases := 0
	for _, c := range []int{1, 2, 3} {
		for _, hw := range [][2]int{{5, 7}, {8, 8}, {9, 6}} {
			h, w := hw[0], hw[1]
			for _, kern := range [][2]int{{1, 1}, {3, 3}, {5, 5}, {5, 3}, {1, 3}} {
				kh, kw := kern[0], kern[1]
				for stride := 1; stride <= 3; stride++ {
					for pad := 0; pad <= 2; pad++ {
						if h+2*pad < kh || w+2*pad < kw {
							continue
						}
						outH := (h+2*pad-kh)/stride + 1
						outW := (w+2*pad-kw)/stride + 1
						g := NewConvGather(c, h, w, kh, kw, stride, pad, outH, outW)
						if g == nil {
							t.Fatalf("c=%d %dx%d: no table for a small input", c, h, w)
						}
						const groups = 2
						all := randCodes(rng, groups*c*h*w)
						for grp := 0; grp < groups; grp++ {
							src := all[grp*c*h*w:][:c*h*w]
							want := packedIm2col(src, c, h, w, kh, kw, stride, pad, outH, outW)
							if g.Len() != len(want) {
								t.Fatalf("Len = %d, want %d", g.Len(), len(want))
							}
							for i := range dst {
								dst[i] = 0xAA
							}
							g.Pack(dst, src, stage)
							for i := range want {
								if dst[i] != want[i] {
									t.Fatalf("c=%d %dx%d k=%v s=%d p=%d group %d: byte %d: gather=%d, want %d",
										c, h, w, kern, stride, pad, grp, i, dst[i], want[i])
								}
							}
							if dst[len(want)] != 0xAA {
								t.Fatalf("c=%d %dx%d k=%v s=%d p=%d: gather wrote past Len", c, h, w, kern, stride, pad)
							}
						}
						cases++
					}
				}
			}
		}
	}
	if cases < 300 {
		t.Fatalf("grid covered only %d geometries", cases)
	}
}

// TestConvGatherIndexWidth pins the uint16 table's limit: an input of
// exactly MaxGatherSrc elements still packs byte-identically (its last
// element and the sentinel sit at the top two indices), and one element
// more gets no table rather than wrapped indices.
func TestConvGatherIndexWidth(t *testing.T) {
	if g := NewConvGather(1, 256, 256, 3, 3, 1, 1, 256, 256); g != nil {
		t.Fatal("a 65536-element input got a uint16 gather table")
	}
	h, w := 255, 257 // 65535 elements
	if h*w != MaxGatherSrc {
		t.Fatalf("test geometry has %d elements, want %d", h*w, MaxGatherSrc)
	}
	g := NewConvGather(1, h, w, 3, 3, 1, 1, h, w)
	if g == nil {
		t.Fatal("a MaxGatherSrc-element input got no table")
	}
	src := randCodes(rand.New(rand.NewSource(59)), h*w)
	want := packedIm2col(src, 1, h, w, 3, 3, 1, 1, h, w)
	got := make([]uint8, g.Len())
	g.Pack(got, src, new(GatherStage))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d: gather=%d, want %d", i, got[i], want[i])
		}
	}
}

// TestOffsetU8 covers the pointwise-conv conversion path.
func TestOffsetU8(t *testing.T) {
	src := []int32{-127, -1, 0, 1, 127}
	dst := make([]uint8, len(src))
	OffsetU8(dst, src)
	for i, v := range src {
		if int32(dst[i]) != v+128 {
			t.Fatalf("OffsetU8(%d) = %d, want %d", v, dst[i], v+128)
		}
	}
}

// TestPackBPadding pins the 128 (offset-zero) fill for pad columns and
// the odd-k pad tap, which is what makes edge tiles safe to compute at
// full width.
func TestPackBPadding(t *testing.T) {
	k, n := 3, 5
	src := make([]uint8, k*n)
	for i := range src {
		src[i] = uint8(i + 1)
	}
	dst := make([]uint8, PackBSize(k, n))
	PackB(dst, src, k, n)
	kq := (k + 1) / 2
	for q := 0; q < kq; q++ {
		grp := dst[q*32:][:32]
		for j := 0; j < 16; j++ {
			w0, w1 := grp[2*j], grp[2*j+1]
			var e0, e1 uint8 = 128, 128
			if j < n {
				e0 = src[2*q*n+j]
				if 2*q+1 < k {
					e1 = src[(2*q+1)*n+j]
				}
			}
			if w0 != e0 || w1 != e1 {
				t.Fatalf("q=%d j=%d: got (%d,%d), want (%d,%d)", q, j, w0, w1, e0, e1)
			}
		}
	}
}

// refIm2col is the per-element im2col reference: src is a c×h×w image,
// dst receives the (c·kh·kw)×(outH·outW) patch matrix whose column j
// holds output pixel j's receptive field, padding taps as zero.
func refIm2col(dst, src []int32, c, h, w, kh, kw, stride, pad, outH, outW int) {
	n := outH * outW
	for ci := 0; ci < c; ci++ {
		plane := src[ci*h*w:][:h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				drow := dst[((ci*kh+ky)*kw+kx)*n:][:n]
				idx := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride + kx - pad
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							drow[idx] = 0
						} else {
							drow[idx] = plane[iy*w+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// BenchmarkConvGatherPack times one gather pass for a 3×3 pad-1 conv
// over a 16×8×8 input, the residual-stage shape of the demo CNN.
func BenchmarkConvGatherPack(b *testing.B) {
	g := NewConvGather(16, 8, 8, 3, 3, 1, 1, 8, 8)
	src := randCodes(rand.New(rand.NewSource(1)), 16*8*8)
	dst := make([]uint8, g.Len())
	stage := new(GatherStage)
	b.SetBytes(int64(g.Len()))
	for i := 0; i < b.N; i++ {
		g.Pack(dst, src, stage)
	}
}
