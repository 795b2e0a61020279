package kernels

import (
	"encoding/binary"
	"math"
)

// Packed int8 GEMM path. Each weight matrix is repacked once at
// plan-build time into microkernel-shaped panels, the activations are
// carried as offset-u8 bytes, and the requantization epilogue is fused
// into the 4×16 register tile, so per-image work is one pass over
// int8-range data with no int32 round-trip buffer. A conv never materializes its
// patch matrix: a gather compiled at plan build (ConvGather) stages the
// input activation and writes the B panels straight from the stage.
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

// MaxGatherSrc is the stage's capacity in bytes, and so the largest
// padded per-group conv input, c·(h+2·pad)·(w+2·pad) elements, a gather
// can stage for one image. A larger input stays on the direct loop.
const MaxGatherSrc = 1 << 16

// GatherStage is the staging buffer ConvGather.Pack reads through: one
// conv group's input in the offset-u8 domain, padded and split into
// stride phases (see ConvGather). Sixteen bytes of slack past the
// MaxGatherSrc bytes let the gather read every run segment as one
// 16-byte load.
type GatherStage [MaxGatherSrc + 16]uint8

// ConvGather is one conv geometry's im2col + PackB as a staging layout
// and k tap offsets. Pack writes a chunk's input to the stage padded
// and split into stride phases: c·hp rows of wp pixels (hp = h+2·pad,
// wp = w+2·pad), border pixels 128 (the offset image of zero), each
// pixel's b images contiguous (the chunk travels batch-innermost,
// element e of image j at e·b + j), and within a row first every pixel
// x ≡ 0 (mod stride), then x ≡ 1, and so on — for stride 1 the plain
// row. Output pixel ox of row oy reads tap (ci, ky, kx) at padded
// (oy·stride+ky, ox·stride+kx), which is pixel ox + ⌊kx/stride⌋ of the
// row's phase kx mod stride, so one tap's bytes for one output row are
// a single contiguous run of outW·b bytes starting at
// taps[r]·b + oy·stride·wp·b. Column (pixel s, image j) of the batched
// patch matrix is column s·b + j, so the runs of an output row are the
// row's outW·b consecutive columns and one GEMM covers the chunk.
type ConvGather struct {
	taps        []int32 // stage pixel offset of each tap (ci, ky, kx) for output row 0
	c, h, w     int
	kh, kw      int
	stride, pad int
	outH, outW  int
	// A strided conv stages only what its taps read: the interior of
	// each phase r < kw (phases) in each row an output row reaches
	// (rows).
	phases []phaseRun
	rows   []rowRun
}

// phaseRun is the interior of one stride phase of a staged row: n
// pixels at stage pixel at of the row, from source pixels from,
// from+stride, ….
type phaseRun struct{ at, from, n int }

// rowRun is n interior source rows y0, y0+step, … that taps read.
type rowRun struct{ y0, n, step int }

// NewConvGather compiles the tap offsets for a c×h×w input convolved
// with a kh×kw kernel at the given stride and zero padding. It returns
// nil when one image's padded input, c·(h+2·pad)·(w+2·pad) elements,
// exceeds the stage (MaxGatherSrc); such a conv must stay off the
// packed path.
func NewConvGather(c, h, w, kh, kw, stride, pad, outH, outW int) *ConvGather {
	hp, wp := h+2*pad, w+2*pad
	if c*hp*wp > MaxGatherSrc {
		return nil
	}
	g := &ConvGather{taps: make([]int32, 0, c*kh*kw), c: c, h: h, w: w, kh: kh, kw: kw,
		stride: stride, pad: pad, outH: outH, outW: outW}
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				phase := 0 // pixels of the phases stored before kx's
				for r := 0; r < kx%stride; r++ {
					phase += (wp - r + stride - 1) / stride
				}
				off := (ci*hp+ky)*wp + phase + kx/stride
				g.taps = append(g.taps, int32(off)) //trlint:checked off < c·hp·wp <= MaxGatherSrc
			}
		}
	}
	if stride > 1 {
		// Phase r holds padded x = r + i·stride; its interior pixels
		// p ≤ x < p+w are i0 ≤ i < i1. Phases r ≥ kw are never read.
		at := 0
		for r := 0; r < min(stride, kw); r++ {
			i0, i1 := (max(pad-r, 0)+stride-1)/stride, (pad+w-r+stride-1)/stride
			if i1 > i0 {
				g.phases = append(g.phases, phaseRun{at: at + i0, from: r + i0*stride - pad, n: i1 - i0})
			}
			at += (wp - r + stride - 1) / stride
		}
		// Output row oy reads padded rows oy·stride + ky: every row below
		// last when kh ≥ stride, else those ≡ ky (mod stride) for ky < kh.
		last, step, residues := (outH-1)*stride+kh, 1, 1
		if kh < stride {
			step, residues = stride, kh
		}
		for ky := 0; ky < residues; ky++ {
			run := rowRun{step: step}
			for yp := ky; yp < last; yp += step {
				if y := yp - pad; y >= 0 && y < h {
					if run.n == 0 {
						run.y0 = y
					}
					run.n++
				}
			}
			if run.n > 0 {
				g.rows = append(g.rows, run)
			}
		}
	}
	return g
}

// Len returns the packed B length Pack fills for a chunk of b images:
// PackBSize of the (c·kh·kw)×(b·outH·outW) patch matrix.
func (g *ConvGather) Len(b int) int { return PackBSize(len(g.taps), g.outH*g.outW*b) }

// MaxChunk is the widest chunk Pack accepts: b images of the padded
// input, c·hp·wp·b bytes, must fit the stage.
func (g *ConvGather) MaxChunk() int {
	return MaxGatherSrc / (g.c * (g.h + 2*g.pad) * (g.w + 2*g.pad))
}

// Pack writes the packed B panels of a chunk's patch matrix into dst,
// byte-identical to PackB over the offset-u8 im2col matrix of the b
// images. src holds the chunk's conv input batch-innermost (exactly
// b·c·h·w codes; activation codes are clamped to [-127, 127] by every
// producer, so their offset stays in [1, 255]); b = 1 is one image in
// its plain layout. stage is caller-owned scratch, and b must not
// exceed MaxChunk.
func (g *ConvGather) Pack(dst []uint8, src []int32, b int, stage *GatherStage) {
	if b < 1 || b > g.MaxChunk() {
		panic("kernels: gather chunk does not fit the stage")
	}
	g.stageInput(stage, src[:g.c*g.h*g.w*b], b)
	kq := (len(g.taps) + 1) / 2
	run := g.outW * b                         // bytes of one tap's run, and columns of one output row
	rowStep := g.stride * (g.w + 2*g.pad) * b // stage bytes from one output row's runs to the next's
	end := g.outH * run
	dst = dst[:g.Len(b)]
	// A run splits only at 16-column panel edges; each segment is one
	// gatherRun call over every tap pair, and the matrix's last segment
	// also writes its panel's pad columns.
	col := 0
	for oy := 0; oy < g.outH; oy++ {
		for i := 0; i < run; {
			c := col % 16
			w := min(16-c, run-i)
			cols := w
			if col+w == end {
				cols = 16 - c
			}
			gatherRun(dst[col/16*kq*32+2*c:], stage, g.taps, b, oy*rowStep+i, w, cols)
			i += w
			col += w
		}
	}
}

// stageInput writes one group's input to the stage in the padded,
// stride-phased layout (see ConvGather).
func (g *ConvGather) stageInput(stage *GatherStage, src []int32, b int) {
	hp, wp, p := g.h+2*g.pad, g.w+2*g.pad, g.pad
	d := stage[:g.c*hp*wp*b]
	if g.stride == 1 {
		offsetRows(d, src, g.c, g.h, g.w*b, p*b, p*wp*b)
		return
	}
	// A strided conv splits each row into phases, so a row's interior is
	// no longer one run of the source but one strided run per phase.
	// With no padding there is no border to fill.
	if p > 0 {
		fill128(d)
	}
	for ci := 0; ci < g.c; ci++ {
		for _, rr := range g.rows {
			for _, ph := range g.phases {
				offsetPhase(d[((ci*hp+p+rr.y0)*wp+ph.at)*b:], src[((ci*g.h+rr.y0)*g.w+ph.from)*b:],
					rr.n, ph.n, b, g.stride*b, rr.step*wp*b, rr.step*g.w*b)
			}
		}
	}
}

// fill128 sets every byte of d to 128, the offset image of zero.
func fill128(d []uint8) {
	for ; len(d) >= 8; d = d[8:] {
		binary.LittleEndian.PutUint64(d, 0x8080808080808080)
	}
	for i := range d {
		d[i] = 128
	}
}

// gatherRunGo is the portable run gather and the reference for the
// assembly twin. For every tap pair q it writes the 2·cols bytes
// d[32q : 32q+2·cols], the 2-byte column slots of cols consecutive
// columns of one panel: slot i holds the stage bytes at
// base + taps[2q]·b + i and base + taps[2q+1]·b + i for i < w, and 128
// in both bytes for w ≤ i < cols (the last panel's pad columns). An odd
// len(taps) leaves the last pair's second tap as the pad tap, 128.
// 1 ≤ w ≤ cols ≤ 16.
func gatherRunGo(d []uint8, stage *GatherStage, taps []int32, b, base, w, cols int) {
	for q := 0; 2*q < len(taps); q++ {
		o := d[32*q:][:2*cols]
		fill128(o)
		for i, v := range stage[base+int(taps[2*q])*b:][:w] {
			o[2*i] = v
		}
		if 2*q+1 < len(taps) {
			for i, v := range stage[base+int(taps[2*q+1])*b:][:w] {
				o[2*i+1] = v
			}
		}
	}
}

// OffsetU8 converts a slice of int8-range codes to the offset-u8
// domain: the packed linear lane's activation matrices. It runs the
// conv stage fill's loop with no border.
func OffsetU8(dst []uint8, src []int32) {
	offsetRows(dst[:len(src)], src, 1, 1, len(src), 0, 0)
}

// offsetPhaseGo is the portable strided stage fill and the reference
// for the assembly twin: rows rows of px pixels of b codes each, pixel i
// of row r read from src[r·srcRow + i·step:] and written offset-u8 to
// d[r·dstRow + i·b:].
func offsetPhaseGo(d []uint8, src []int32, rows, px, b, step, dstRow, srcRow int) {
	for r := 0; r < rows; r++ {
		out, in := d[r*dstRow:][:px*b], src[r*srcRow:]
		for i := 0; i < px; i++ {
			for j, v := range in[i*step:][:b] {
				out[i*b+j] = uint8(v + 128) //trlint:checked codes are clamped to [-127,127], so +128 is in [1,255]
			}
		}
	}
}

// offsetRowsGo is the portable stage fill and the reference for the
// assembly twin: c channels of h rows of n codes each, converted from
// src to offset-u8 bytes, every row framed by side bytes of 128 on
// either side and every channel by top bytes of 128 above and below.
// d must hold exactly c·(2·top + h·(n + 2·side)) bytes.
func offsetRowsGo(d []uint8, src []int32, c, h, n, side, top int) {
	for ci := 0; ci < c; ci++ {
		fill128(d[:top])
		d = d[top:]
		for y := 0; y < h; y++ {
			fill128(d[:side])
			for i, v := range src[:n] {
				d[side+i] = uint8(v + 128) //trlint:checked codes are clamped to [-127,127], so +128 is in [1,255]
			}
			fill128(d[side+n:][:side])
			d, src = d[n+2*side:], src[n:]
		}
		fill128(d[:top])
		d = d[top:]
	}
}

// Gemm8Rows computes output row panels [p0, p1) of the packed GEMM
// with the requantization fused: dst rows 4·p0 … min(4·p1, m) of the
// m×n result receive requant(bias ⊕ A·B) directly as int8-range codes,
// with no intermediate int32 matrix. pb is the PackB output for the
// k×n patch matrix. Disjoint panel ranges write disjoint dst rows, which
// is what lets Gemm8Blocks run the panels block by block.
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
			f := RoundScaled(float64(v+br), mult)
			if f > hi {
				f = hi
			} else if f < lo {
				f = lo
			}
			d[j] = int32(f) //trlint:checked clamped to the [lo, hi] code window above
		}
	}
}
