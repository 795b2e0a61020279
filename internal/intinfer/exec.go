package intinfer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/kernels"
)

// activation is the integer tensor flowing between steps: int32 codes at
// the step's static scale, with a spatial shape for conv/pool stages.
type activation struct {
	data    []int32
	c, h, w int // spatial shape; c*h*w == len(data) while spatial
	flat    bool
}

// scratch is the per-worker arena a Plan's inference loop runs out of:
// a free list of equally sized activation buffers, the packed-GEMM
// operands (the gather stage, which holds a packed conv's input as
// offset-u8 bytes, and the B panels), the float64 GEMV vectors and the
// batched linear lane's matrices. One scratch serves one in-flight
// Infer; Plan recycles them through a sync.Pool so steady-state
// inference performs no heap allocations after warmup.
//
// Buffer discipline inside exec: in-place steps (ReLU, flatten) return
// their input buffer; every other step gets an output buffer from the
// arena, computes, and puts its input buffer back. On an execution
// error the in-flight activation buffers are stranded mid-chain; reset
// repairs the free list from the canonical buffer set so the scratch
// can go back to the pool instead of being dropped (a dropped scratch
// would regrow the arena from cold on the next acquisition — the leak
// this repair exists to prevent).
type scratch struct {
	free    [][]int32 // available activation buffers, each cap bufCap
	all     [][]int32 // every arena-owned buffer, the reset source
	bufCap  int
	stage   *kernels.GatherStage
	bpack   []uint8   // packed B panels (packed int8 GEMM path)
	xf, yf  []float64 // input and output codes of a GemvF64 step
	bx, by  []uint8   // ping-pong offset-u8 matrices (packed linear lane)
	lin32   []int32   // code matrix of the current packed-linear layer
	wg      sync.WaitGroup
	workers int          // intra-image worker budget for this inference
	stop    *atomic.Bool // cooperative cancellation flag; nil when unused
}

func (p *Plan) newScratch() *scratch {
	p.pm.scratchNew.Inc()
	s := &scratch{free: make([][]int32, p.bufCount), bufCap: p.maxAct,
		xf: make([]float64, p.maxLin), yf: make([]float64, p.maxLin),
		bpack: make([]uint8, p.maxPackB), lin32: make([]int32, p.lin8Buf),
		bx: make([]uint8, p.lin8Buf), by: make([]uint8, p.lin8Buf)}
	if p.staged {
		s.stage = new(kernels.GatherStage)
	}
	for i := range s.free {
		s.free[i] = make([]int32, p.maxAct)
	}
	s.all = append([][]int32(nil), s.free...)
	return s
}

// reset restores the free list to the full arena. A failed inference
// leaves buffers stranded in half-executed activations; rebuilding the
// list from the canonical set reclaims them (safety-net buffers
// allocated outside the arena are simply dropped), so error paths can
// recycle the scratch instead of leaking it.
func (s *scratch) reset() {
	s.free = s.free[:0]
	s.free = append(s.free, s.all...)
}

// get pops an activation buffer. The arena is sized at build time so the
// free list never runs dry; the allocating branch is a safety net that
// preserves correctness if a future step type miscounts.
func (s *scratch) get(n int) []int32 {
	if len(s.free) == 0 {
		return make([]int32, n)
	}
	b := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return b[:n]
}

func (s *scratch) put(b []int32) {
	if cap(b) < s.bufCap {
		return // safety-net buffer; don't poison the arena
	}
	s.free = append(s.free, b[:cap(b)])
}

// scratch fetches a recycled arena from the pool and arms it with the
// intra-image worker budget and the (possibly nil) cancellation flag for
// this call. Both fields are overwritten on every acquisition, so a flag
// left set by a cancelled inference cannot leak into the next one.
//
//trlint:arena-acquire
func (p *Plan) scratch(workers int, stop *atomic.Bool) *scratch {
	s := p.arena.Get().(*scratch)
	s.workers = workers
	s.stop = stop
	p.pm.scratchGet.Inc()
	p.pm.scratchLive.Add(1)
	return s
}

// errStopped reports that the shared cancellation flag was observed
// mid-inference. Batch drivers translate it into a silent early exit
// (or the context's error, for the ctx-aware entry points) — it never
// surfaces to callers of the public API.
var errStopped = errors.New("intinfer: inference stopped")

// failRelease repairs and recycles a scratch whose inference failed:
// reset rebuilds the activation free list from the canonical buffer set
// (the failed run left buffers stranded mid-chain), the release is
// recorded in the arena metrics, and the scratch goes back to the pool.
// Every error return path must go through this one helper — the inline
// reset/released/Put triplet this replaces was copy-pasted per entry
// point, which is exactly how the PR-3 arena leak happened when a new
// path dropped one line of it.
//
//trlint:arena-release
func (p *Plan) failRelease(s *scratch) {
	s.reset()
	p.released(s)
	p.arena.Put(s)
}

// stopped polls the cooperative cancellation flag. It is checked between
// plan steps and between GEMM/GEMV row partitions, so a batch failure
// interrupts even a single large in-flight layer instead of waiting for
// the whole image to finish.
func (s *scratch) stopped() bool { return s.stop != nil && s.stop.Load() }

// run quantizes the image and executes the step chain, returning the
// final activation (owned by the scratch arena).
func (p *Plan) run(img []float32, s *scratch) (activation, error) {
	if len(img) != p.inC*p.inH*p.inW {
		return activation{}, fmt.Errorf("intinfer: image has %d values, want %d",
			len(img), p.inC*p.inH*p.inW)
	}
	// Input quantizer: the only float-to-int boundary. Dividing by the
	// scale is hoisted to a reciprocal multiply, and rounding uses the
	// 2^52 magic-constant trick (see roundMagic). ±Inf saturates like
	// any out-of-range value; NaN fails both clamps, so it is mapped to
	// code 0 explicitly rather than left to int32(NaN), whose value Go
	// leaves implementation-defined.
	act := activation{data: s.get(len(img)), c: p.inC, h: p.inH, w: p.inW}
	dst := act.data[:len(img)]
	inv := 1 / float64(p.inScale)
	for i, v := range img {
		c := float64(v)*inv + roundMagic - roundMagic
		if c > 127 {
			c = 127
		} else if c < -127 {
			c = -127
		} else if math.IsNaN(c) {
			c = 0
		}
		dst[i] = int32(c)
	}
	for i := range p.steps {
		if s.stopped() {
			return activation{}, errStopped
		}
		var err error
		act, err = p.execStep(i, act, s)
		if err != nil {
			return activation{}, fmt.Errorf("intinfer: step %s: %w", p.steps[i].name, err)
		}
	}
	return act, nil
}

// Infer runs one image through the plan and returns the logits in float
// form (codes times the output scale) plus the predicted class. A NaN
// pixel quantizes to code 0 and ±Inf saturates to ±127, so non-finite
// input yields a defined answer, the same on every entry point.
func (p *Plan) Infer(img []float32) ([]float32, int, error) {
	s := p.scratch(p.intraWorkers, nil)
	p.pm.infers.Inc()
	act, err := p.run(img, s)
	if err != nil {
		p.pm.inferErrs.Inc()
		p.failRelease(s)
		return nil, 0, err
	}
	logits := make([]float32, len(act.data))
	best := 0
	for i, c := range act.data {
		logits[i] = float32(c) * p.outScale
		if logits[i] > logits[best] {
			best = i
		}
	}
	s.put(act.data)
	p.released(s)
	p.arena.Put(s)
	return logits, best, nil
}

// Classify returns only the predicted class, skipping the logits
// allocation: with a warm arena it performs zero heap allocations, which
// is the form the batch paths use. Non-finite pixels are handled as in
// Infer.
func (p *Plan) Classify(img []float32) (int, error) {
	return p.classify(img, p.intraWorkers, nil)
}

func (p *Plan) classify(img []float32, workers int, stop *atomic.Bool) (int, error) {
	s := p.scratch(workers, stop)
	best, err := p.runClass(img, s)
	if err != nil {
		p.pm.inferErrs.Inc()
		p.failRelease(s)
		return 0, err
	}
	p.released(s)
	p.arena.Put(s)
	return best, nil
}

// runClass runs one image on an acquired scratch and returns its class,
// handing the output buffer back to the arena. The output scale is
// positive, so the argmax over codes equals the argmax over logits.
func (p *Plan) runClass(img []float32, s *scratch) (int, error) {
	p.pm.infers.Inc()
	act, err := p.run(img, s)
	if err != nil {
		return 0, err
	}
	best := 0
	for i, c := range act.data {
		if c > act.data[best] {
			best = i
		}
	}
	s.put(act.data)
	return best, nil
}

// InferBatch classifies a batch and returns predictions, holding one
// scratch arena for the whole batch. Every prediction equals Classify's
// for the same image, non-finite pixels included.
func (p *Plan) InferBatch(images [][]float32) ([]int, error) {
	return p.inferBatchSerial(images, nil)
}

// inferBatchSerial is InferBatch's engine with an externally owned
// cancellation flag (nil = not cancellable). The flag is threaded into
// the scratch, so it is observed between plan steps and between kernel
// row partitions even though the images run one after another. A
// cancellation surfaces as errStopped for the ctx-aware wrappers to
// translate; real failures come back wrapped with the image index.
func (p *Plan) inferBatchSerial(images [][]float32, stop *atomic.Bool) ([]int, error) {
	if p.linear8 {
		return p.inferBatchLinear8(images, stop)
	}
	preds := make([]int, len(images))
	s := p.scratch(p.intraWorkers, stop)
	p.pm.batchImages.Add(int64(len(images)))
	for i, img := range images {
		cls, err := p.runClass(img, s)
		if err != nil {
			p.pm.inferErrs.Inc()
			p.failRelease(s)
			if errors.Is(err, errStopped) {
				return nil, errStopped
			}
			return nil, fmt.Errorf("intinfer: image %d: %w", i, err)
		}
		preds[i] = cls
	}
	p.released(s)
	p.arena.Put(s)
	return preds, nil
}

// Accuracy evaluates the plan over a labelled set. The two slices must
// pair up exactly; a mismatch is reported as an error rather than a
// panic partway through the evaluation.
func (p *Plan) Accuracy(images [][]float32, labels []int) (float64, error) {
	if len(images) != len(labels) {
		return 0, fmt.Errorf("intinfer: %d images but %d labels", len(images), len(labels))
	}
	if len(images) == 0 {
		return 0, fmt.Errorf("intinfer: empty evaluation set")
	}
	preds, err := p.InferBatch(images)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, pr := range preds {
		if pr == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds)), nil
}

// roundMagic implements round-half-to-even without the ROUNDSD latency:
// adding and subtracting 1.5·2^52 forces the FPU (in its default
// round-to-nearest-even mode) to round at the unit boundary. Exact for
// |v| < 2^51; anything larger lands outside the clamp range anyway.
const roundMagic = 1.5 * (1 << 52)

func clamp8(v int32) int32 {
	if v > 127 {
		return 127
	}
	if v < -127 {
		return -127
	}
	return v
}

// code8 clamps an integral float64 to the int8 code window and converts.
// Clamping happens in the float domain, so a value beyond int32 range
// (e.g. an extreme shortcut rescale) saturates instead of hitting Go's
// implementation-defined float-to-int overflow.
func code8(v float64) int32 {
	if v > 127 {
		return 127
	}
	if v < -127 {
		return -127
	}
	return int32(v)
}

// sat32 converts an integral float64 to int32, saturating at the type
// bounds: used for bias codes that live at the accumulator scale, where
// a silent wrap would corrupt every dot product that folds them in.
func sat32(v float64) int32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}

func (p *Plan) exec(st step, in activation, s *scratch) (activation, error) {
	switch st.kind {
	case kindConv:
		return p.execConv(st, in, s)
	case kindLinear:
		return p.execLinear(st, in, s)
	case kindReLU:
		for i, v := range in.data {
			if v < 0 {
				in.data[i] = 0
			} else if st.capCode > 0 && v > st.capCode {
				in.data[i] = st.capCode
			}
		}
		return in, nil
	case kindMaxPool:
		return execMaxPool(st, in, s)
	case kindGAP:
		return execGAP(in, s)
	case kindResidual:
		return p.execResidual(st, in, s)
	case kindFlatten:
		in.flat = true
		return in, nil
	default:
		return in, fmt.Errorf("unknown step kind %d", st.kind)
	}
}

// execResidual runs both branches (at the same target scale) and adds
// their codes; the identity shortcut rescales from the input scale to the
// target. Saturating to int8 matches the requantizer on the main path.
// The skip-add happens in place in the body's buffer.
func (p *Plan) execResidual(st step, in activation, s *scratch) (activation, error) {
	// Branches consume independent copies of the activation (steps may
	// mutate in place, e.g. ReLU).
	body := activation{data: s.get(len(in.data)), c: in.c, h: in.h, w: in.w}
	copy(body.data, in.data)
	var err error
	for _, sub := range st.body {
		body, err = p.exec(sub, body, s)
		if err != nil {
			return in, err
		}
	}
	var skip activation
	if st.proj != nil {
		skip = activation{data: s.get(len(in.data)), c: in.c, h: in.h, w: in.w}
		copy(skip.data, in.data)
		for _, sub := range st.proj {
			skip, err = p.exec(sub, skip, s)
			if err != nil {
				return in, err
			}
		}
	} else {
		// Identity shortcut: rescale codes to the target scale.
		ratio := float64(st.shortcutScale) / float64(st.targetScale)
		skip = activation{data: s.get(len(in.data)), c: in.c, h: in.h, w: in.w}
		for i, v := range in.data {
			skip.data[i] = code8(math.RoundToEven(float64(v) * ratio))
		}
	}
	if len(body.data) != len(skip.data) {
		return in, fmt.Errorf("residual branches disagree: %d vs %d values",
			len(body.data), len(skip.data))
	}
	for i := range body.data {
		body.data[i] = clamp8(body.data[i] + skip.data[i])
	}
	s.put(skip.data)
	s.put(in.data)
	return body, nil
}

// execGAP averages each channel plane with round-half-even; the scale is
// unchanged, so no requantization is needed.
func execGAP(in activation, s *scratch) (activation, error) {
	if in.h == 0 || in.w == 0 {
		return in, fmt.Errorf("GAP on non-spatial activation")
	}
	spatial := in.h * in.w
	out := activation{data: s.get(in.c), flat: true}
	for c := 0; c < in.c; c++ {
		var sum int64
		for i := 0; i < spatial; i++ {
			sum += int64(in.data[c*spatial+i])
		}
		// The mean of int8-range codes stays in the code window.
		out.data[c] = code8(math.RoundToEven(float64(sum) / float64(spatial)))
	}
	s.put(in.data)
	return out, nil
}

// requant converts a 32-bit accumulator at scale sw·sx to an 8-bit code
// at scale sy: code = round(acc · sw·sx / sy), clamped to the step's
// [lo, hi] window. The window is [-127, 127] for a bare layer; a folded
// ReLU raises lo to 0 (see fuseActivations). This is the per-layer
// requantization every integer deployment performs.
func requant(acc int64, m float64, lo, hi int32) int32 {
	v := float64(acc)*m + roundMagic - roundMagic
	if v > float64(hi) {
		return hi
	}
	if v < float64(lo) {
		return lo
	}
	return int32(v)
}

// intraMinWork is the multiply-accumulate count above which a single
// layer's GEMM rows are partitioned across goroutines. A variable so the
// race tests can force the parallel path on small models.
var intraMinWork = 1 << 21

// gemm8 is the packed-GEMM row driver shared by conv steps and the
// packed linear lane: over an already-packed B (pb, k×n), the 4-row
// output panels run with the requant fused, in MR-row blocks, and split
// across workers in whole MR blocks when the layer is large enough to
// amortize the fan-out. Panels map to disjoint dst rows, so workers
// need no synchronization beyond the scratch-owned WaitGroup (which
// keeps the fan-out allocation-free). The single-threaded path is
// kernels.Gemm8Blocks, the loop the autotuner times.
func (p *Plan) gemm8(s *scratch, dst []int32, pa *kernels.PackedA, pb []uint8,
	n, mr int, mult float64, lo, hi int32) {
	workers := s.workers
	if workers > pa.MP {
		workers = pa.MP // at least one 4-row panel per worker
	}
	if workers <= 1 || pa.M*n*pa.K < intraMinWork {
		kernels.Gemm8Blocks(dst, pa, pb, n, mr, mult, lo, hi)
		return
	}
	mrp := kernels.RowPanels(mr, pa.MP)
	chunk := (pa.MP + workers - 1) / workers
	chunk = (chunk + mrp - 1) / mrp * mrp // whole MR blocks per worker
	for p0 := 0; p0 < pa.MP; p0 += chunk {
		p1 := p0 + chunk
		if p1 > pa.MP {
			p1 = pa.MP
		}
		s.wg.Add(1)
		go gemm8Chunk(&s.wg, s.stop, dst, pa, pb, n, p0, p1, mult, lo, hi)
	}
	s.wg.Wait()
}

func gemm8Chunk(wg *sync.WaitGroup, stop *atomic.Bool, dst []int32,
	pa *kernels.PackedA, pb []uint8, n, p0, p1 int, mult float64, lo, hi int32) {
	defer wg.Done()
	if stop != nil && stop.Load() {
		return
	}
	kernels.Gemm8Rows(dst, pa, pb, n, p0, p1, mult, lo, hi)
}

// gemvF64 runs the float64-carried single-column linear kernel,
// splitting output rows across workers when the layer is large enough
// to amortize the fan-out; workers write disjoint row ranges of dst and
// share the read-only x.
func (p *Plan) gemvF64(s *scratch, dst, a, x, bias []float64,
	m, k int, mult, lo, hi float64) {
	p.pm.dispatchGemvF64.Inc()
	workers := s.workers
	if max := m / 8; workers > max {
		workers = max
	}
	if workers <= 1 || m*k < intraMinWork {
		kernels.GemvF64(dst, a, x, bias, 0, m, k, mult, lo, hi)
		return
	}
	chunk := (m + workers - 1) / workers
	for r0 := 0; r0 < m; r0 += chunk {
		r1 := r0 + chunk
		if r1 > m {
			r1 = m
		}
		s.wg.Add(1)
		go gemvF64Chunk(&s.wg, s.stop, dst, a, x, bias, r0, r1, k, mult, lo, hi)
	}
	s.wg.Wait()
}

func gemvF64Chunk(wg *sync.WaitGroup, stop *atomic.Bool, dst, a, x, bias []float64,
	r0, r1, k int, mult, lo, hi float64) {
	defer wg.Done()
	if stop != nil && stop.Load() {
		return
	}
	kernels.GemvF64(dst, a, x, bias, r0, r1, k, mult, lo, hi)
}

// execConv runs a packed conv as one gather pass plus the packed GEMM
// per group, and any conv the build did not pack (kernels.AccumFitsU8,
// or an input too large for a gather table) on the direct loop with
// 64-bit accumulation.
func (p *Plan) execConv(st step, in activation, s *scratch) (activation, error) {
	g := st.geom
	if in.c != g.inC || in.h != g.inH || in.w != g.inW {
		return in, fmt.Errorf("conv input %dx%dx%d, want %dx%dx%d",
			in.c, in.h, in.w, g.inC, g.inH, g.inW)
	}
	out := activation{data: s.get(g.outC * g.outH * g.outW),
		c: g.outC, h: g.outH, w: g.outW}
	if st.pack8 == nil {
		p.pm.dispatchDirect.Inc()
		execConvDirect(st, in, out)
		s.put(in.data)
		return out, nil
	}
	// One gather pass writes the group's microkernel panels from its
	// input slice, and the requantization runs fused inside the kernel's
	// register tile — out.data receives final codes with no int32
	// round-trip pass.
	cPerG := g.inC / g.groups
	oPerG := g.outC / g.groups
	n := g.outH * g.outW
	pb := s.bpack[:st.gather.Len()]
	for grp := 0; grp < g.groups; grp++ {
		st.gather.Pack(pb, in.data[grp*cPerG*g.inH*g.inW:][:cPerG*g.inH*g.inW], s.stage)
		p.pm.dispatchGemm8.Inc()
		p.gemm8(s, out.data[grp*oPerG*n:][:oPerG*n], st.pack8[grp], pb,
			n, st.tile.MR, st.mult, st.lo, st.hi)
	}
	s.put(in.data)
	return out, nil
}

// execConvDirect is the reference implementation the packed path is
// tested bit-exact against, and the fallback for convs the build did not
// pack.
func execConvDirect(st step, in, out activation) {
	g := st.geom
	cPerG := g.inC / g.groups
	oPerG := g.outC / g.groups
	kk := cPerG * g.kh * g.kw
	for oc := 0; oc < g.outC; oc++ {
		grp := oc / oPerG
		wRow := st.weights[oc*kk : (oc+1)*kk]
		for oh := 0; oh < g.outH; oh++ {
			for ow := 0; ow < g.outW; ow++ {
				acc := int64(st.bias[oc])
				for c := 0; c < cPerG; c++ {
					ic := grp*cPerG + c
					for kh := 0; kh < g.kh; kh++ {
						ih := oh*g.stride + kh - g.pad
						if ih < 0 || ih >= g.inH {
							continue
						}
						rowOff := (ic*g.inH + ih) * g.inW
						wOff := (c*g.kh + kh) * g.kw
						for kw := 0; kw < g.kw; kw++ {
							iw := ow*g.stride + kw - g.pad
							if iw < 0 || iw >= g.inW {
								continue
							}
							acc += int64(wRow[wOff+kw]) * int64(in.data[rowOff+iw])
						}
					}
				}
				out.data[(oc*g.outH+oh)*g.outW+ow] = requant(acc, st.mult, st.lo, st.hi)
			}
		}
	}
}

// execLinear runs one image's linear step: the float64 GEMV with the
// requant fused when kernels.ExactF64 admitted the step (bit-identical
// to the direct loop), otherwise the direct loop.
func (p *Plan) execLinear(st step, in activation, s *scratch) (activation, error) {
	if len(in.data) != st.cols {
		return in, fmt.Errorf("linear input %d values, want %d", len(in.data), st.cols)
	}
	out := activation{data: s.get(st.rows), flat: true}
	if st.wf64 == nil {
		p.pm.dispatchDirect.Inc()
		execLinearDirect(st, in, out)
		s.put(in.data)
		return out, nil
	}
	xf := s.xf[:st.cols]
	for i, v := range in.data {
		xf[i] = float64(v)
	}
	yf := s.yf[:st.rows]
	p.gemvF64(s, yf, st.wf64, xf, st.bf64, st.rows, st.cols,
		st.mult, float64(st.lo), float64(st.hi))
	for i, v := range yf {
		//trlint:checked GemvF64 clamps every code to the step's [lo, hi]
		out.data[i] = int32(v)
	}
	s.put(in.data)
	return out, nil
}

// execLinearDirect is the 64-bit fallback and golden reference for the
// linear kernels.
func execLinearDirect(st step, in, out activation) {
	for r := 0; r < st.rows; r++ {
		acc := int64(st.bias[r])
		row := st.weights[r*st.cols : (r+1)*st.cols]
		for i, w := range row {
			acc += int64(w) * int64(in.data[i])
		}
		out.data[r] = requant(acc, st.mult, st.lo, st.hi)
	}
}

func execMaxPool(st step, in activation, s *scratch) (activation, error) {
	oh := (in.h-st.k)/st.stride + 1
	ow := (in.w-st.k)/st.stride + 1
	out := activation{data: s.get(in.c * oh * ow), c: in.c, h: oh, w: ow}
	for c := 0; c < in.c; c++ {
		plane := in.data[c*in.h*in.w:]
		for py := 0; py < oh; py++ {
			for px := 0; px < ow; px++ {
				best := int32(math.MinInt32)
				for ky := 0; ky < st.k; ky++ {
					iy := py*st.stride + ky
					for kx := 0; kx < st.k; kx++ {
						if v := plane[iy*in.w+px*st.stride+kx]; v > best {
							best = v
						}
					}
				}
				out.data[(c*oh+py)*ow+px] = best
			}
		}
	}
	s.put(in.data)
	return out, nil
}

// classifyLabelled is classify with a runtime/pprof "image" label
// around the inference when label profiling is on, so profile samples
// taken through the obs endpoint attribute to batch positions. The
// label plumbing allocates a context and a label set per image, which
// is why it is gated behind Options.ProfileLabels rather than riding
// along with the metrics.
func (p *Plan) classifyLabelled(img []float32, idx, workers int, stop *atomic.Bool) (int, error) {
	if !p.pm.enabled || !p.pm.labels {
		return p.classify(img, workers, stop)
	}
	var cls int
	var err error
	pprof.Do(context.Background(), pprof.Labels("image", strconv.Itoa(idx)),
		func(context.Context) { cls, err = p.classify(img, workers, stop) })
	return cls, err
}

// InferBatchParallel classifies a batch with a worker pool; a Plan is
// immutable after Build, so concurrent inference is safe. workers < 1
// selects GOMAXPROCS. The first error stops all workers: each checks a
// shared atomic flag before starting an image, and the flag is threaded
// into every in-flight inference, where it is re-checked between plan
// steps and between GEMM/GEMV row partitions — so a failure early in
// the batch interrupts even a large half-finished layer instead of
// letting the remaining workers grind through the rest. The returned
// error wraps the index of the image that failed.
// The intra-image worker budget is divided by the batch workers so the
// two levels of parallelism compose instead of oversubscribing.
func (p *Plan) InferBatchParallel(images [][]float32, workers int) ([]int, error) {
	var stop atomic.Bool
	return p.inferBatchParallel(images, workers, &stop)
}

// inferBatchParallel is InferBatchParallel's engine. The stop flag is
// caller-owned so the ctx-aware wrappers can set it from outside (a
// deadline or cancellation); the workers additionally set it themselves
// on the first internal failure. When the flag was set externally — the
// workers went down but none recorded an error — the batch surfaces
// errStopped for the wrapper to translate into the context's error.
func (p *Plan) inferBatchParallel(images [][]float32, workers int, stop *atomic.Bool) ([]int, error) {
	if p.linear8 {
		return p.inferBatchLinear8Parallel(images, workers, stop)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(images) && len(images) > 0 {
		workers = len(images)
	}
	p.pm.batchImages.Add(int64(len(images)))
	intra := p.intraWorkers / workers
	if intra < 1 {
		intra = 1
	}
	preds := make([]int, len(images))
	var (
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := wkr; i < len(images); i += workers {
				if stop.Load() {
					return
				}
				cls, err := p.classifyLabelled(images[i], i, intra, stop)
				if err != nil {
					if errors.Is(err, errStopped) {
						return // the flag is already set: a peer failed, or the caller cancelled
					}
					errOnce.Do(func() { firstErr = fmt.Errorf("intinfer: image %d: %w", i, err) })
					stop.Store(true)
					return
				}
				preds[i] = cls
			}
		}(wkr)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if stop.Load() {
		return nil, errStopped // external cancellation, no internal error
	}
	return preds, nil
}
