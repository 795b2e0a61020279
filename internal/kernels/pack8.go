package kernels

import "math"

// Packed int8 GEMM path. Each weight matrix is repacked once at
// plan-build time into microkernel-shaped panels, the activations are
// carried as offset-u8 bytes, and the requantization epilogue is fused
// into the 4×16 register tile, so per-image work is one pass over
// int8-range data with no int32 round-trip buffer. A conv never materializes its
// patch matrix: a gather table compiled at plan build (ConvGather)
// writes the B panels straight from the input activation.
//
// Layouts (MR = 4 output rows, NR = 16 output columns, KU = 2 taps):
//
//	A (weights, packed once by PackA): row panels of 4 rows. Panel p
//	holds rows 4p..4p+3 as KQ = ⌈k/2⌉ groups of 8 int16 entries
//	[r0k0 r0k1 r1k0 r1k1 r2k0 r2k1 r3k0 r3k1] — each row's tap pair
//	is one 32-bit lane for VPBROADCASTD. Codes are int8-range; the
//	int16 storage is what VPMADDWD multiplies directly. Rows past m
//	and taps past k pad with zero.
//
//	B (activations, packed per image by PackB, or ConvGather.Pack for
//	a conv's patch matrix): column panels of 16.
//	Panel c holds columns 16c..16c+15 as KQ groups of 32 bytes
//	[c0k0 c0k1 c1k0 c1k1 … c15k0 c15k1] — one VPMOVZXBW pair-load per
//	8 columns. Entries are offset-u8 codes (x+128 ∈ [1,255], the
//	u8-offset trick); pad columns and pad taps hold 128 (offset zero).
//
// The u8 offset makes every B entry non-negative so one widening load
// feeds VPMADDWD without a sign fixup per element; the constant it
// injects, 128·Σ_q w[i,q] per output row, is folded into the packed
// bias at PackA time, so the kernel applies the exact correction for
// free with the bias add. Exactness: |Σ(x+128)·w| ≤ k·255·|w|max and
// the compensated bias both fit int32 under AccumFitsU8, VPMADDWD is
// exact on (≤255)×(≤127) pairs, and the epilogue performs the same
// float64 multiply/magic-round/clamp sequence as the scalar requant,
// so the packed path is bit-identical to an int64 GEMM + requant.

// PackedA is a weight matrix in packed panel form, built once at plan
// time by PackA and shared read-only by every inference.
type PackedA struct {
	data []int16 // MP panels × KQ × 8 entries
	bias []int32 // compensated bias, padded to 4·MP rows
	// M×K are the logical matrix dimensions; KQ = ⌈K/2⌉ tap pairs and
	// MP = ⌈M/4⌉ row panels describe the padded panel grid.
	M, K, KQ, MP int

	biasMax int64 // max |compensated bias| before int32 saturation
}

// PackA repacks an m×k row-major weight-code matrix (and its
// accumulator-scale bias, len m) into panel form. The returned panels
// embed the u8-offset compensation: bias[i] − 128·Σ_q w[i,q]. A
// compensated bias that overflows int32 is saturated here and the
// overflow is visible through BiasMax, which AccumFitsU8 rejects — a
// saturated pack never reaches the kernel.
func PackA(w, bias []int32, m, k int) *PackedA {
	kq := (k + 1) / 2
	mp := (m + 3) / 4
	pa := &PackedA{data: make([]int16, mp*kq*8), bias: make([]int32, mp*4),
		M: m, K: k, KQ: kq, MP: mp}
	for i := 0; i < m; i++ {
		row := w[i*k : (i+1)*k]
		panel := pa.data[(i/4)*kq*8:]
		r := i % 4
		var rowSum int64
		for q, c := range row {
			// Weight codes are int8-range by the quantizer's contract;
			// int16 panel storage is exact.
			panel[(q/2)*8+r*2+q%2] = int16(c) //trlint:checked int8-range code into int16
			rowSum += int64(c)
		}
		comp := int64(bias[i]) - 128*rowSum
		if a := comp; a < 0 {
			a = -a
			if a > pa.biasMax {
				pa.biasMax = a
			}
		} else if a > pa.biasMax {
			pa.biasMax = a
		}
		if comp > math.MaxInt32 {
			comp = math.MaxInt32
		} else if comp < math.MinInt32 {
			comp = math.MinInt32
		}
		pa.bias[i] = int32(comp)
	}
	return pa
}

// BiasMax returns the largest compensated-bias magnitude, the bias
// term of the AccumFitsU8 admission bound.
func (pa *PackedA) BiasMax() int64 { return pa.biasMax }

// AccumFitsU8 reports whether the packed kernel's int32 accumulator is
// overflow-free: B entries are offset-u8 codes bounded by 255, so a
// k-deep dot against |w| ≤ wmax plus a compensated bias of magnitude ≤
// biasMax must satisfy k·255·wmax + biasMax ≤ MaxInt32. It bounds the
// offset representation's full range, so it also bounds the plain
// k·127·wmax int32 dot product.
func AccumFitsU8(k int, wmax, biasMax int64) bool {
	return int64(k)*255*wmax+biasMax <= math.MaxInt32
}

// PackBSize returns the byte length PackB needs for a k×n matrix.
func PackBSize(k, n int) int { return ((k + 1) / 2) * ((n + 15) / 16) * 32 }

// PackB lays a k×n row-major offset-u8 patch matrix out into column
// panels (see the layout comment above). dst must have PackBSize(k, n)
// bytes; pad columns and a pad tap for odd k are written as 128 so
// they contribute exactly zero against real or zero-padded weights.
func PackB(dst, src []uint8, k, n int) {
	PackBBlocked(dst, src, k, n, 0, 0)
}

// PackBBlocked is PackB with a blocked source traversal: panels are
// visited in column blocks of nr columns, and within a block the tap
// pairs are visited in stripes of kc source rows, so the window of src
// one pass touches is bounded by roughly kc×n bytes instead of the
// whole matrix. nr must be a multiple of 16 and kc even; 0 for either
// means unblocked (the plain PackB order). The destination bytes are
// identical for every (nr, kc) — blocking only reorders the writes —
// which is what lets the autotuner treat them as pure locality knobs.
func PackBBlocked(dst, src []uint8, k, n, nr, kc int) {
	kq := (k + 1) / 2
	np := (n + 15) / 16
	nrp := np
	if p := nr / 16; nr > 0 && p < np {
		nrp = p
		if nrp < 1 {
			nrp = 1
		}
	}
	kcq := kq
	if q := kc / 2; kc > 0 && q < kq {
		kcq = q
		if kcq < 1 {
			kcq = 1
		}
	}
	for cb := 0; cb < np; cb += nrp {
		ce := cb + nrp
		if ce > np {
			ce = np
		}
		for qb := 0; qb < kq; qb += kcq {
			qe := qb + kcq
			if qe > kq {
				qe = kq
			}
			for cp := cb; cp < ce; cp++ {
				packBPanelTaps(dst, src, k, n, cp, qb, qe)
			}
		}
	}
}

// packBPanelTaps writes tap pairs [q0, q1) of column panel cp — the
// shared inner loop of the unblocked and blocked PackB traversals.
func packBPanelTaps(dst, src []uint8, k, n, cp, q0, q1 int) {
	kq := (k + 1) / 2
	j0 := cp * 16
	cols := n - j0
	if cols > 16 {
		cols = 16
	}
	out := dst[cp*kq*32:]
	for q := q0; q < q1; q++ {
		o := out[q*32:][:32]
		r0 := src[2*q*n+j0:][:cols]
		if 2*q+1 < k {
			r1 := src[(2*q+1)*n+j0:][:cols]
			for j, v := range r0 {
				o[2*j] = v
				o[2*j+1] = r1[j]
			}
		} else {
			for j, v := range r0 {
				o[2*j] = v
				o[2*j+1] = 128
			}
		}
		for j := cols; j < 16; j++ {
			o[2*j], o[2*j+1] = 128, 128
		}
	}
}

// gatherSlots is the GatherStage size: a uint16 table entry can name
// any of its slots, so the gather loop needs no bounds check.
const gatherSlots = 1 << 16

// GatherStage is the staging buffer ConvGather.Pack reads through: the
// conv input in the offset-u8 domain followed by a 128 byte per image
// (the offset image of zero) that every padding entry of the table
// names. Sixteen bytes of slack past the slots let the chunk gather
// read each run as one 16-byte load.
type GatherStage [gatherSlots + 16]uint8

// MaxGatherSrc is the largest conv input, in elements, a gather table
// can index; one stage slot past it is kept for the 128 sentinel.
const MaxGatherSrc = gatherSlots - 1

// ConvGather is one conv geometry's im2col + PackB compiled into a
// gather table. Entry i names the input element whose offset-u8 code
// lands at byte i of the packed B panels of one image's
// (c·kh·kw)×(outH·outW) patch matrix; padded border taps, the odd-k pad
// tap and pad columns name the sentinel slot just past the input. The
// table depends only on geometry, so plans share one per geometry. It
// costs two bytes per packed byte (PackBSize(c·kh·kw, outH·outW)
// entries) and indexes inputs of at most MaxGatherSrc elements.
//
// Pack also serves a chunk of b images at once from the same per-image
// table: the chunk travels batch-innermost (element e of image j at
// e·b + j), and column (pixel s, image j) of the batched patch matrix
// is column s·b + j, so one GEMM covers the chunk.
type ConvGather struct {
	idx  []uint16
	src  int // input elements per image; also the sentinel's index
	k, n int // patch-matrix depth c·kh·kw and width outH·outW
}

// NewConvGather compiles the gather table for a c×h×w input convolved
// with a kh×kw kernel at the given stride and zero padding. It returns
// nil when the input is too large for uint16 entries (c·h·w >
// MaxGatherSrc); such a conv must stay off the packed path.
func NewConvGather(c, h, w, kh, kw, stride, pad, outH, outW int) *ConvGather {
	src := c * h * w
	if src > MaxGatherSrc {
		return nil
	}
	k, n := c*kh*kw, outH*outW
	kq := (k + 1) / 2
	sentinel := uint16(src) //trlint:checked src <= MaxGatherSrc, checked above
	g := &ConvGather{idx: make([]uint16, PackBSize(k, n)), src: src, k: k, n: n}
	// Walk the PackB layout column by column: column col of panel cp
	// holds tap r at byte cp·kq·32 + (r/2)·32 + 2·(col%16) + r%2.
	for col := 0; col < (n+15)/16*16; col++ {
		out := g.idx[col/16*kq*32+2*(col%16):]
		if col >= n {
			for q := 0; q < kq; q++ {
				out[q*32], out[q*32+1] = sentinel, sentinel
			}
			continue
		}
		oy, ox := col/outW*stride-pad, col%outW*stride-pad
		r := 0
		for ci := 0; ci < c; ci++ {
			for ky := 0; ky < kh; ky++ {
				iy := oy + ky
				for kx := 0; kx < kw; kx++ {
					ix := ox + kx
					v := sentinel
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						v = uint16((ci*h+iy)*w + ix) //trlint:checked an in-bounds input index is < src <= MaxGatherSrc
					}
					out[r/2*32+r%2] = v
					r++
				}
			}
		}
		if r%2 == 1 {
			out[r/2*32+1] = sentinel // odd-k pad tap
		}
	}
	return g
}

// Len returns the packed B length Pack fills for a chunk of b images:
// PackBSize of the (c·kh·kw)×(b·outH·outW) patch matrix.
func (g *ConvGather) Len(b int) int { return PackBSize(g.k, g.n*b) }

// MaxChunk is the widest chunk Pack accepts: the staged input of b
// images plus their b sentinel bytes, (src+1)·b, must fit the stage.
func (g *ConvGather) MaxChunk() int { return gatherSlots / (g.src + 1) }

// Pack writes the packed B panels of a chunk's patch matrix into dst in
// one pass, byte-identical to PackB over the offset-u8 im2col matrix of
// the b images. src holds the chunk's conv input batch-innermost
// (exactly b·c·h·w codes; activation codes are clamped to [-127, 127] by
// every producer, so their offset stays in [1, 255]); b = 1 is one image
// in its plain layout. stage is caller-owned scratch, and b must not
// exceed MaxChunk.
func (g *ConvGather) Pack(dst []uint8, src []int32, b int, stage *GatherStage) {
	if b < 1 || b > g.MaxChunk() {
		panic("kernels: gather chunk does not fit the stage")
	}
	// The staged input is followed by b bytes of 128, so the sentinel
	// entry e = src reads offset zero for every image of the chunk.
	OffsetU8(stage[:g.src*b], src[:g.src*b])
	for j := g.src * b; j < (g.src+1)*b; j++ {
		stage[j] = 128
	}
	if b == 1 {
		g.packOne(dst, stage)
		return
	}
	kq := (g.k + 1) / 2
	dst = dst[:g.Len(b)]
	// Per-image column s names each tap's input element at a stride of
	// 32, and each element's b images sit contiguously on the stage, so
	// tap pair q of the batched columns s·b … s·b+b−1 is two b-byte runs
	// zipped into 2-byte slots. A run breaks only at a 16-column panel
	// edge; its segments are the same for every tap pair.
	for s := 0; s < g.n; s++ {
		t := g.idx[s/16*kq*32+2*(s%16):][:(kq-1)*32+2]
		for j, col := 0, s*b; j < b; {
			c := col % 16
			run := min(16-c, b-j)
			gatherRun(dst[col/16*kq*32+2*c:], t, stage, kq, b, j, run)
			j += run
			col += run
		}
	}
	for col := g.n * b; col%16 != 0; col++ { // pad columns of the last panel
		d := dst[col/16*kq*32+2*(col%16):]
		for q := 0; q < kq; q++ {
			d[q*32], d[q*32+1] = 128, 128
		}
	}
}

// gatherRunGo is the portable run gather and the reference for the
// assembly twin: for every tap pair q < kq, d[32q+2i] and d[32q+2i+1]
// receive the staged bytes of images j+i of the elements t[32q] and
// t[32q+1], for i < run.
func gatherRunGo(d []uint8, t []uint16, stage *GatherStage, kq, b, j, run int) {
	for q := 0; q < kq; q++ {
		x := stage[int(t[q*32])*b+j:][:run]
		y := stage[int(t[q*32+1])*b+j:][:run]
		o := d[q*32:][:2*run]
		for i, v := range x {
			o[2*i], o[2*i+1] = v, y[i]
		}
	}
}

// packOne is Pack for one image, whose batched layout is the table's
// own: a straight gather, one table entry per packed byte.
func (g *ConvGather) packOne(dst []uint8, stage *GatherStage) {
	// The table holds whole 32-byte tap-pair groups, so eight-entry
	// strides cover it exactly; uint16 entries need no bounds check
	// against the 64 KiB stage, and the unrolled body trims the loop
	// overhead (about a quarter faster than one entry per iteration in
	// BenchmarkConvGatherPack on a 2-vCPU AVX2 Xeon).
	idx := g.idx
	dst = dst[:len(idx)]
	for i := 0; i < len(idx); i += 8 {
		t := (*[8]uint16)(idx[i:])
		d := (*[8]uint8)(dst[i:])
		d[0], d[1], d[2], d[3] = stage[t[0]], stage[t[1]], stage[t[2]], stage[t[3]]
		d[4], d[5], d[6], d[7] = stage[t[4]], stage[t[5]], stage[t[6]], stage[t[7]]
	}
}

// OffsetU8 converts a slice of int8-range codes to the offset-u8
// domain: the gather's staging pass and the packed linear lane's
// activation matrices.
func OffsetU8(dst []uint8, src []int32) {
	for i, v := range src {
		dst[i] = uint8(v + 128) //trlint:checked codes are clamped to [-127,127], so +128 is in [1,255]
	}
}

// Gemm8Rows computes output row panels [p0, p1) of the packed GEMM
// with the requantization fused: dst rows 4·p0 … min(4·p1, m) of the
// m×n result receive requant(bias ⊕ A·B) directly as int8-range codes,
// with no intermediate int32 matrix. pb is the PackB output for the
// k×n patch matrix. Disjoint panel ranges write disjoint dst rows, so
// the intra-image row partitioning fans panels across goroutines with
// no synchronization.
func Gemm8Rows(dst []int32, pa *PackedA, pb []uint8, n, p0, p1 int, mult float64, lo, hi int32) {
	if haveGemm8 {
		gemm8ASM.Inc()
	} else {
		gemm8Portable.Inc()
	}
	np := (n + 15) / 16
	kq := pa.KQ
	flo, fhi := float64(lo), float64(hi)
	for p := p0; p < p1; p++ {
		apanel := pa.data[p*kq*8:][:kq*8]
		quad := pa.bias[4*p:][:4]
		rows := pa.M - 4*p
		if rows > 4 {
			rows = 4
		}
		for cp := 0; cp < np; cp++ {
			bpanel := pb[cp*kq*32:][:kq*32]
			cols := n - cp*16
			if rows == 4 && cols >= 16 {
				d := dst[4*p*n+cp*16:]
				if haveGemm8 {
					gemm8tile(d, n, apanel, bpanel, kq, quad, mult, flo, fhi)
				} else {
					gemm8tileGo(d, n, apanel, bpanel, kq, quad, mult, flo, fhi)
				}
				continue
			}
			// Edge tile: compute the full 4×16 tile into a spill buffer
			// (pad rows carry zero weights, pad columns 128-bytes; both
			// requantize to in-range garbage) and copy out the live part.
			if cols > 16 {
				cols = 16
			}
			var tile [64]int32
			if haveGemm8 {
				gemm8tile(tile[:], 16, apanel, bpanel, kq, quad, mult, flo, fhi)
			} else {
				gemm8tileGo(tile[:], 16, apanel, bpanel, kq, quad, mult, flo, fhi)
			}
			for r := 0; r < rows; r++ {
				copy(dst[(4*p+r)*n+cp*16:][:cols], tile[r*16:][:cols])
			}
		}
	}
}

// gemm8tileGo is the portable tile kernel and the differential
// reference for the assembly twin: identical 4×16 tile shape, identical
// accumulation order per lane (each output column accumulates its own
// k-pairs in sequence — int32 addition is associative, so any k order
// matches), and the identical float64 requant sequence.
func gemm8tileGo(dst []int32, stride int, a []int16, b []uint8, kq int, bias []int32, mult, lo, hi float64) {
	var acc [4][16]int32
	for kp := 0; kp < kq; kp++ {
		bb := b[kp*32:][:32]
		aa := a[kp*8:][:8]
		for r := 0; r < 4; r++ {
			w0, w1 := int32(aa[r*2]), int32(aa[r*2+1])
			if w0 == 0 && w1 == 0 {
				continue
			}
			ar := &acc[r]
			for j := 0; j < 16; j++ {
				ar[j] += w0*int32(bb[2*j]) + w1*int32(bb[2*j+1])
			}
		}
	}
	for r := 0; r < 4; r++ {
		d := dst[r*stride:][:16]
		br := bias[r]
		for j, v := range acc[r] {
			// The same magic-constant round and clamp as requant; the
			// clamp bounds every value to the [lo, hi] code window.
			f := float64(v+br)*mult + roundMagic - roundMagic
			if f > hi {
				f = hi
			} else if f < lo {
				f = lo
			}
			d[j] = int32(f) //trlint:checked clamped to the [lo, hi] code window above
		}
	}
}
