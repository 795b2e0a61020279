package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refRequant is the scalar requantization the packed path fuses: the
// same float64 multiply, magic-constant round and clamp sequence as
// intinfer's requant.
func refRequant(acc int32, mult float64, lo, hi int32) int32 {
	f := RoundScaled(float64(acc), mult)
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
// to the full result — the property Gemm8Blocks's row blocks rely on.
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
// PackB(OffsetU8(refIm2col(src))) of a chunk of b images stored
// batch-innermost (element e of image j at e·b + j); the patch matrix
// puts image j's column s at column s·b + j.
func packedIm2col(src []int32, b, c, h, w, kh, kw, stride, pad, outH, outW int) []uint8 {
	k, n := c*kh*kw, outH*outW
	img := make([]int32, c*h*w)
	col := make([]int32, k*n)
	batched := make([]int32, k*n*b)
	for j := 0; j < b; j++ {
		for e := range img {
			img[e] = src[e*b+j]
		}
		refIm2col(col, img, c, h, w, kh, kw, stride, pad, outH, outW)
		for r := 0; r < k; r++ {
			for s := 0; s < n; s++ {
				batched[r*n*b+s*b+j] = col[r*n+s]
			}
		}
	}
	u8 := make([]uint8, k*n*b)
	OffsetU8(u8, batched)
	pb := make([]uint8, PackBSize(k, n*b))
	PackB(pb, u8, k, n*b)
	return pb
}

// TestConvGatherMatchesIm2colPackB pins the gather table byte for byte
// against the two-pass reference over a geometry grid: strides 1–3,
// pads 0–2, kernels 1/3/5 (and two non-square ones), odd and even
// c·kh·kw, n off the 16-column grid, non-square inputs, and each
// group's slice of a two-group input — for one image and for chunks of
// 2–9 images, whose batched width b·n mostly falls off the 16-column
// grid too.
// One stage and one destination serve every case, so stale bytes from
// a larger earlier pack must never leak into a smaller one.
func TestConvGatherMatchesIm2colPackB(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	stage := new(GatherStage)
	dst := make([]uint8, 1<<17)
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
						for b := 1; b <= 9; b++ {
							const groups = 2
							all := randCodes(rng, groups*c*h*w*b)
							for grp := 0; grp < groups; grp++ {
								src := all[grp*c*h*w*b:][:c*h*w*b]
								want := packedIm2col(src, b, c, h, w, kh, kw, stride, pad, outH, outW)
								if g.Len(b) != len(want) {
									t.Fatalf("Len(%d) = %d, want %d", b, g.Len(b), len(want))
								}
								for i := range dst[:len(want)+1] {
									dst[i] = 0xAA
								}
								g.Pack(dst, src, b, stage)
								for i := range want {
									if dst[i] != want[i] {
										t.Fatalf("c=%d %dx%d k=%v s=%d p=%d b=%d group %d: byte %d: gather=%d, want %d",
											c, h, w, kern, stride, pad, b, grp, i, dst[i], want[i])
									}
								}
								if dst[len(want)] != 0xAA {
									t.Fatalf("c=%d %dx%d k=%v s=%d p=%d b=%d: gather wrote past Len", c, h, w, kern, stride, pad, b)
								}
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

// TestConvGatherIndexWidth pins the stage's admission bound: a conv
// whose padded per-group input c·(h+2·pad)·(w+2·pad) is exactly
// MaxGatherSrc elements packs one image byte-identically (its last
// tap's last run ends at the stage's last byte) and reports MaxChunk 1,
// and a padded input one element larger gets no gather. The padding
// counts: 254×255 input elements fit the stage unpadded but not with a
// one-pixel border.
func TestConvGatherIndexWidth(t *testing.T) {
	if g := NewConvGather(1, 1, MaxGatherSrc+1, 1, 1, 1, 0, 1, MaxGatherSrc+1); g != nil {
		t.Fatal("a padded input of MaxGatherSrc+1 elements got a gather")
	}
	if g := NewConvGather(1, 254, 255, 3, 3, 1, 1, 254, 255); g != nil {
		t.Fatal("a 256×257 padded input got a gather")
	}
	h, w := 254, 254
	if (h+2)*(w+2) != MaxGatherSrc {
		t.Fatalf("test geometry pads to %d elements, want %d", (h+2)*(w+2), MaxGatherSrc)
	}
	g := NewConvGather(1, h, w, 3, 3, 1, 1, h, w)
	if g == nil {
		t.Fatal("a padded input of MaxGatherSrc elements got no gather")
	}
	if g.MaxChunk() != 1 {
		t.Fatalf("MaxChunk = %d for a full stage, want 1", g.MaxChunk())
	}
	src := randCodes(rand.New(rand.NewSource(59)), h*w)
	want := packedIm2col(src, 1, 1, h, w, 3, 3, 1, 1, h, w)
	got := make([]uint8, g.Len(1))
	g.Pack(got, src, 1, new(GatherStage))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d: gather=%d, want %d", i, got[i], want[i])
		}
	}
}

// TestConvGatherChunkEdge packs a stride-2 chunk that fills the stage
// exactly, (c·hp·wp)·b = 65,536 bytes, through the phase split. One
// image more must be refused rather than read past the stage.
func TestConvGatherChunkEdge(t *testing.T) {
	const c, h, w, b = 2, 62, 126, 4 // padded 2×64×128
	if c*(h+2)*(w+2)*b != MaxGatherSrc {
		t.Fatalf("(c·hp·wp)·b = %d, want %d", c*(h+2)*(w+2)*b, MaxGatherSrc)
	}
	outH, outW := (h+2-3)/2+1, (w+2-3)/2+1
	g := NewConvGather(c, h, w, 3, 3, 2, 1, outH, outW)
	if g.MaxChunk() != b {
		t.Fatalf("MaxChunk = %d, want %d", g.MaxChunk(), b)
	}
	src := randCodes(rand.New(rand.NewSource(61)), c*h*w*b)
	want := packedIm2col(src, b, c, h, w, 3, 3, 2, 1, outH, outW)
	got := make([]uint8, g.Len(b))
	stage := new(GatherStage)
	g.Pack(got, src, b, stage)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d: gather=%d, want %d", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a chunk past the stage was packed")
		}
	}()
	g.Pack(make([]uint8, g.Len(b+1)), randCodes(rand.New(rand.NewSource(62)), c*h*w*(b+1)), b+1, stage)
}

// TestOffsetU8 pins the SSE2 conversion loop against the scalar Go
// loop: every length 0–67 (16- and 4-code blocks, the overlapping last
// block, and the scalar loop below 4 codes) over windows that cover all
// 255 codes, with a marker past len. The stage fill runs the same loop
// with borders, and a strided conv's fill converts pixel by pixel; both
// are checked against their portable references (borders and pixel
// widths across every residue mod 16, strided rows and pixels), with a
// marker past the end.
func TestOffsetU8(t *testing.T) {
	codes := make([]int32, 255+67)
	for i := range codes {
		codes[i] = int32(i%255 - 127)
	}
	dst := make([]uint8, 68)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 255; off++ {
			src := codes[off:][:n]
			for i := range dst {
				dst[i] = 0xAA
			}
			OffsetU8(dst, src)
			for i, v := range src {
				if want := uint8(v + 128); dst[i] != want {
					t.Fatalf("n=%d off=%d: OffsetU8(%d) = %d, want %d", n, off, v, dst[i], want)
				}
			}
			if dst[n] != 0xAA {
				t.Fatalf("n=%d: OffsetU8 wrote past len", n)
			}
		}
	}
	rng := rand.New(rand.NewSource(53))
	for _, c := range []int{1, 3} {
		for _, h := range []int{1, 2, 5} {
			for _, n := range []int{0, 1, 5, 16, 27} {
				for _, side := range []int{0, 1, 3, 17} {
					for _, top := range []int{0, 2, 21, 40} {
						size := c * (2*top + h*(n+2*side))
						src := randCodes(rng, c*h*n)
						want := make([]uint8, size+1)
						got := make([]uint8, size+1)
						for i := range want {
							want[i], got[i] = 0xAA, 0xAA
						}
						offsetRowsGo(want[:size], src, c, h, n, side, top)
						offsetRows(got[:size], src, c, h, n, side, top)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("c=%d h=%d n=%d side=%d top=%d: byte %d: got %d, want %d",
									c, h, n, side, top, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	for _, rows := range []int{1, 3} {
		for _, px := range []int{1, 2, 5} {
			for b := 1; b <= 33; b++ {
				step, dstRow, srcRow := 2*b+1, px*b+3, 7*b*px
				size := (rows-1)*dstRow + px*b
				src := randCodes(rng, (rows-1)*srcRow+(px-1)*step+b)
				want := make([]uint8, size+1)
				got := make([]uint8, size+1)
				for i := range want {
					want[i], got[i] = 0xAA, 0xAA
				}
				offsetPhaseGo(want[:size], src, rows, px, b, step, dstRow, srcRow)
				offsetPhase(got[:size], src, rows, px, b, step, dstRow, srcRow)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("rows=%d px=%d b=%d: byte %d: got %d, want %d", rows, px, b, i, got[i], want[i])
					}
				}
			}
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

// BenchmarkConvGatherPack times one gather pass (stage fill plus panel
// gather) over an 8×8×8 input for the demo CNN's three conv shapes at
// that size: k3s1 is stage 1's 3×3 stride-1 pad-1 conv, k3s2 and k1s2
// the downsampling block's 3×3 stride-2 pad-1 conv and 1×1 stride-2
// projection. Chunks run from one image through the served widths (2–5)
// to the batched lane's 64.
func BenchmarkConvGatherPack(b *testing.B) {
	for _, geo := range []struct {
		name               string
		k, stride, pad, wo int
	}{{"k3s1", 3, 1, 1, 8}, {"k3s2", 3, 2, 1, 4}, {"k1s2", 1, 2, 0, 4}} {
		g := NewConvGather(8, 8, 8, geo.k, geo.k, geo.stride, geo.pad, geo.wo, geo.wo)
		for _, chunk := range []int{1, 2, 3, 4, 5, 8, 64} {
			b.Run(fmt.Sprintf("%s/b%d", geo.name, chunk), func(b *testing.B) {
				src := randCodes(rand.New(rand.NewSource(1)), 8*8*8*chunk)
				dst := make([]uint8, g.Len(chunk))
				stage := new(GatherStage)
				b.SetBytes(int64(g.Len(chunk)))
				for i := 0; i < b.N; i++ {
					g.Pack(dst, src, chunk, stage)
				}
			})
		}
	}
}
