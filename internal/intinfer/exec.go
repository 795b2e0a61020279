package intinfer

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/kernels"
)

// activation is the integer tensor flowing between steps: int32 codes at
// the step's static scale, with a spatial shape for conv/pool stages,
// for one image or, batch-innermost, for a chunk of b images (see
// batch.go). A chunk's quantized input reaches a leading linear as its
// offset-u8 matrix u8 instead, with data nil.
type activation struct {
	data    []int32
	u8      []uint8
	c, h, w int // spatial shape; c*h*w*b == len(data) while spatial
	flat    bool
}

// scratch is the per-worker arena a Plan's inference loop runs out of:
// a free list of equally sized activation buffers, the packed-GEMM
// operands (the gather stage, which holds a packed conv's input as
// offset-u8 bytes, and the B panels), the float64 GEMV vectors and the
// batched lane's offset-u8 matrix. Buffers are sized for a whole chunk
// when the plan batches. One scratch serves one in-flight inference;
// Plan recycles them through a sync.Pool so steady-state inference
// performs no heap allocations after warmup.
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
	free   [][]int32 // available activation buffers, each cap bufCap
	all    [][]int32 // every arena-owned buffer, the reset source
	bufCap int
	stage  *kernels.GatherStage
	bpack  []uint8      // packed B panels (packed int8 GEMM path)
	xf, yf []float64    // input and output codes of a GemvF64 step
	u8     []uint8      // the quantized input (one image or a chunk) and a batched linear's k×b offset-u8 B operand
	stop   *atomic.Bool // cooperative cancellation flag; nil when unused
}

func (p *Plan) newScratch() *scratch {
	p.pm.scratchNew.Inc()
	s := &scratch{free: make([][]int32, p.bufCount), bufCap: p.maxAct,
		xf: make([]float64, p.maxLin), yf: make([]float64, p.maxLin),
		bpack: make([]uint8, p.maxPackB), u8: make([]uint8, p.u8Buf)}
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
// (possibly nil) cancellation flag for this call. The flag is
// overwritten on every acquisition, so a flag left set by a cancelled
// inference cannot leak into the next one.
//
//trlint:arena-acquire
func (p *Plan) scratch(stop *atomic.Bool) *scratch {
	s := p.arena.Get().(*scratch)
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
// plan steps, so a batch failure or a cancellation interrupts an image
// or a chunk at its next step instead of waiting for it to finish.
func (s *scratch) stopped() bool { return s.stop != nil && s.stop.Load() }

// run quantizes the image and executes the step chain, returning the
// final activation (owned by the scratch arena).
func (p *Plan) run(img []float32, s *scratch) (activation, error) {
	if len(img) != p.inC*p.inH*p.inW {
		return activation{}, fmt.Errorf("intinfer: image has %d values, want %d",
			len(img), p.inC*p.inH*p.inW)
	}
	// Input quantizer: the only float-to-int boundary (see
	// kernels.QuantizeU8), the chunk's pass at stride 1.
	u8 := s.u8[:len(img)]
	kernels.QuantizeU8(u8, img, 1, 1/float64(p.inScale))
	return p.runSteps(p.widen(u8, s), 1, s)
}

// runSteps executes the step chain over an activation of b images,
// polling the stop flag before every step.
func (p *Plan) runSteps(act activation, b int, s *scratch) (activation, error) {
	for i := range p.steps {
		if s.stopped() {
			return activation{}, errStopped
		}
		var err error
		act, err = p.execStep(i, act, b, s)
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
	s := p.scratch(nil)
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
	return p.classify(img, nil)
}

func (p *Plan) classify(img []float32, stop *atomic.Bool) (int, error) {
	s := p.scratch(stop)
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

// InferBatch classifies a batch and returns predictions, running it on
// the caller's goroutine out of one scratch arena. Every prediction
// equals Classify's for the same image, non-finite pixels included.
func (p *Plan) InferBatch(images [][]float32) ([]int, error) {
	return p.inferBatch(images, 1, nil)
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

// exec runs one step over an activation of b images.
func (p *Plan) exec(st *step, in activation, b int, s *scratch) (activation, error) {
	switch st.kind {
	case kindConv:
		return p.execConv(st, in, b, s)
	case kindLinear:
		return p.execLinear(st, in, b, s)
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
		return execMaxPool(st, in, b, s)
	case kindGAP:
		return execGAP(in, b, s)
	case kindResidual:
		return p.execResidual(st, in, b, s)
	case kindFlatten:
		in.flat = true
		return in, nil
	default:
		return in, fmt.Errorf("unknown step kind %d", st.kind)
	}
}

// execResidual runs both branches (at the same target scale) and adds
// their codes; the identity shortcut rescales the input from its scale
// to the target through the step's table. The sum is clamped to the
// step's [lo, hi] window: [-127, 127], which matches the requantizer on
// the main path, or [0, cap] when a following ReLU was folded in
// (fuseActivations). The skip-add happens in place in the body's
// buffer.
func (p *Plan) execResidual(st *step, in activation, b int, s *scratch) (activation, error) {
	// Branches consume independent copies of the activation (steps may
	// mutate in place, e.g. ReLU).
	body := activation{data: s.get(len(in.data)), c: in.c, h: in.h, w: in.w}
	copy(body.data, in.data)
	var err error
	for k := range st.body {
		body, err = p.exec(&st.body[k], body, b, s)
		if err != nil {
			return in, err
		}
	}
	skip := in
	if st.proj != nil {
		skip = activation{data: s.get(len(in.data)), c: in.c, h: in.h, w: in.w}
		copy(skip.data, in.data)
		for k := range st.proj {
			skip, err = p.exec(&st.proj[k], skip, b, s)
			if err != nil {
				return in, err
			}
		}
	}
	if len(body.data) != len(skip.data) {
		return in, fmt.Errorf("residual branches disagree: %d vs %d values",
			len(body.data), len(skip.data))
	}
	lo, hi, sum := st.lo, st.hi, body.data[:len(skip.data)]
	if st.proj != nil {
		for i, v := range skip.data {
			sum[i] = min(max(sum[i]+v, lo), hi)
		}
		s.put(skip.data)
	} else {
		for i, v := range in.data {
			sum[i] = min(max(sum[i]+st.rescale[uint8(v)], lo), hi) //trlint:checked a code's low byte indexes its rescaled value
		}
	}
	s.put(in.data)
	return body, nil
}

// execGAP averages each channel plane with round-half-even; the scale is
// unchanged, so no requantization is needed. Its c×b output is a
// batched head's B operand as it stands.
func execGAP(in activation, b int, s *scratch) (activation, error) {
	if in.h == 0 || in.w == 0 {
		return in, fmt.Errorf("GAP on non-spatial activation")
	}
	spatial := in.h * in.w
	out := activation{data: s.get(in.c * b), flat: true}
	for c := 0; c < in.c; c++ {
		plane := in.data[c*spatial*b:][:spatial*b]
		for j := 0; j < b; j++ {
			var sum int64
			for i := j; i < len(plane); i += b {
				sum += int64(plane[i])
			}
			// The mean of int8-range codes stays in the code window.
			out.data[c*b+j] = code8(math.RoundToEven(float64(sum) / float64(spatial)))
		}
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
	v := kernels.RoundScaled(float64(acc), m)
	if v > float64(hi) {
		return hi
	}
	if v < float64(lo) {
		return lo
	}
	return int32(v)
}

// execConv runs a packed conv as one gather pass plus the packed GEMM
// per group, over all b images of the activation at once, and any conv
// the build did not pack (kernels.AccumFitsU8, or a padded input too
// large for the gather stage) on the direct loop with 64-bit
// accumulation — one image only, since the batched lane admits packed
// convs alone.
func (p *Plan) execConv(st *step, in activation, b int, s *scratch) (activation, error) {
	g := st.geom
	if in.c != g.inC || in.h != g.inH || in.w != g.inW {
		return in, fmt.Errorf("conv input %dx%dx%d, want %dx%dx%d",
			in.c, in.h, in.w, g.inC, g.inH, g.inW)
	}
	if st.pack8 == nil && b > 1 {
		return in, fmt.Errorf("conv is not packed, so it cannot run a chunk")
	}
	out := activation{data: s.get(g.outC * g.outH * g.outW * b),
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
	// round-trip pass. Batch-innermost, group grp's input and output
	// are contiguous slices, and column s·b + j of its GEMM is output
	// pixel s of image j.
	src := g.inC / g.groups * g.inH * g.inW * b
	oPerG := g.outC / g.groups
	n := g.outH * g.outW * b
	pb := s.bpack[:st.gather.Len(b)]
	for grp := 0; grp < g.groups; grp++ {
		st.gather.Pack(pb, in.data[grp*src:][:src], b, s.stage)
		p.pm.dispatchGemm8.Inc()
		kernels.Gemm8Blocks(out.data[grp*oPerG*n:][:oPerG*n], st.pack8[grp], pb,
			n, st.tile.MR, st.mult, st.lo, st.hi)
	}
	s.put(in.data)
	return out, nil
}

// execConvDirect is the reference implementation the packed path is
// tested bit-exact against, and the fallback for convs the build did not
// pack.
func execConvDirect(st *step, in, out activation) {
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

// execLinear runs a linear step. A chunk of b ≥ 2 images is one packed
// M×b×K GEMM over the chunk's offset-u8 matrix; one image runs the
// float64 GEMV with the requant fused when kernels.ExactF64 admitted the
// step (bit-identical to the direct loop), otherwise the direct loop.
func (p *Plan) execLinear(st *step, in activation, b int, s *scratch) (activation, error) {
	if got := len(in.data) + len(in.u8); got != st.cols*b {
		return in, fmt.Errorf("linear input %d values, want %d", got/b, st.cols)
	}
	if b > 1 {
		if st.pack8lin == nil {
			return in, fmt.Errorf("linear is not packed, so it cannot run a chunk")
		}
		u8 := in.u8
		if u8 == nil {
			u8 = s.u8[:st.cols*b]
			kernels.OffsetU8(u8, in.data)
		}
		out := activation{data: s.get(st.rows * b), flat: true}
		p.pm.dispatchLinear8.Inc()
		gemm8Batch(s, out.data, st.pack8lin, u8, b, st.tile, st.mult, st.lo, st.hi)
		s.put(in.data)
		return out, nil
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
	p.pm.dispatchGemvF64.Inc()
	kernels.GemvF64(yf, st.wf64, xf, st.bf64, 0, st.rows, st.cols,
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
func execLinearDirect(st *step, in, out activation) {
	for r := 0; r < st.rows; r++ {
		acc := int64(st.bias[r])
		row := st.weights[r*st.cols : (r+1)*st.cols]
		for i, w := range row {
			acc += int64(w) * int64(in.data[i])
		}
		out.data[r] = requant(acc, st.mult, st.lo, st.hi)
	}
}

// execMaxPool takes each window's maximum, for each of the b images of
// the activation.
func execMaxPool(st *step, in activation, b int, s *scratch) (activation, error) {
	oh := (in.h-st.k)/st.stride + 1
	ow := (in.w-st.k)/st.stride + 1
	out := activation{data: s.get(in.c * oh * ow * b), c: in.c, h: oh, w: ow}
	for c := 0; c < in.c; c++ {
		plane := in.data[c*in.h*in.w*b:]
		for py := 0; py < oh; py++ {
			for px := 0; px < ow; px++ {
				best := out.data[((c*oh+py)*ow+px)*b:][:b]
				for j := range best {
					best[j] = math.MinInt32
				}
				for ky := 0; ky < st.k; ky++ {
					iy := py*st.stride + ky
					for kx := 0; kx < st.k; kx++ {
						for j, v := range plane[(iy*in.w+px*st.stride+kx)*b:][:b] {
							best[j] = max(best[j], v)
						}
					}
				}
			}
		}
	}
	s.put(in.data)
	return out, nil
}
