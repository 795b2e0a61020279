package intinfer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/kernels"
)

// The batched lane. A plan whose every conv and linear is packed
// (p.chunk > 0, see chunkWidth) runs whole micro-batches through the
// int8 panel kernels: a chunk of b images travels batch-innermost —
// element (c, y, x) of image j sits at ((c·H+y)·W+x)·b + j — so each
// conv group is one gather plus one GEMM over N = b·outH·outW columns,
// each linear one M×b×K GEMM, and pools, residual adds and ReLUs run
// over the whole chunk. In this layout a flatten is shape-only and a
// global average pool's c×b output is the head's B operand as it
// stands. One image is the same layout with b = 1, so the lane reuses
// the per-image executor step for step; only the quantizer and the
// kernel a linear runs differ. The arithmetic per element is identical
// to the per-image path (same quantizer, same s32 accumulation, same
// float64 requant sequence), so predictions are bit-identical to
// Classify image by image; batching fills the 16-column panels that
// small convs leave mostly padding, reads each weight panel once per
// chunk instead of once per image, and pays each step's fixed cost once
// per chunk.

// maxChunk bounds a chunk's width: wide enough that every 16-column
// panel of a linear's micro-batch GEMM is full for batches ≥ 64, small
// enough that the evaluation models' chunk activations stay L2-resident.
// A conv plan's chunk is narrower when its largest gathered input
// leaves the 64 KiB stage less room (kernels.ConvGather.MaxChunk).
const maxChunk = 64

// chunkWidth returns the chunk width of a plan's batched lane, or 0 when
// the plan runs image by image: every conv and linear must be packed,
// and the chunk must fit every conv's gather stage with room for at
// least two images.
func chunkWidth(steps []step) int {
	b, weights := maxChunk, 0
	var walk func(steps []step) bool
	walk = func(steps []step) bool {
		for i := range steps {
			st := &steps[i]
			switch st.kind {
			case kindConv:
				if st.pack8 == nil {
					return false
				}
				b = min(b, st.gather.MaxChunk())
				weights++
			case kindLinear:
				if st.pack8lin == nil {
					return false
				}
				weights++
			case kindResidual:
				if !walk(st.body) || !walk(st.proj) {
					return false
				}
			}
		}
		return true
	}
	if !walk(steps) || weights == 0 || b < 2 {
		return 0
	}
	return b
}

// inferBatch is the batch driver behind InferBatch and
// InferBatchContext. It cuts the batch into contiguous spans, one per
// worker (workers < 1: GOMAXPROCS), each run chunk by chunk out of its
// own scratch; a plan off the batched lane runs chunks of one image. A
// span holds at least two images when the plan batches, so it still
// runs batched, and whole chunks once a worker gets more than one.
// Splitting a served batch keeps its latency: run as one chunk on one
// core, closed_cnn's p99 read about 35% above a per-image fan-out's.
// With one worker left, the batch runs on the caller's goroutine.
//
// The first failing span records its error, which names the image, and
// sets the shared stop flag; every other span stops at its next step. A
// flag set from outside (the context wrapper's) with no recorded error
// surfaces errStopped for translation. A nil flag is not cancellable.
// The spans of one call share one allocated spanRun.
func (p *Plan) inferBatch(images [][]float32, workers int, stop *atomic.Bool) ([]int, error) {
	width := max(p.chunk, 1)
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(images)/min(width, 2))
	p.pm.batchImages.Add(int64(len(images)))
	preds := make([]int, len(images))
	if workers <= 1 {
		if err := p.runSpan(images, preds, 0, stop); err != nil {
			return nil, err
		}
		return preds, nil
	}
	run := new(spanRun)
	if stop == nil {
		stop = &run.stop // spans still stop each other
	}
	span := (len(images) + workers - 1) / workers
	if span > width {
		span = (span + width - 1) / width * width
	}
	for start := 0; start < len(images); start += span {
		end := min(start+span, len(images))
		run.wg.Add(1)
		go p.spanWorker(run, images[start:end], preds[start:end], start, stop)
	}
	run.wg.Wait()
	if run.err != nil { // every span has returned: Wait orders the read
		return nil, run.err
	}
	if stop.Load() {
		return nil, errStopped // external cancellation, no internal error
	}
	return preds, nil
}

// spanRun is what the spans of one multi-span call share: the join, the
// first error a span recorded, and the stop flag of a call that brought
// none.
type spanRun struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
	stop atomic.Bool
}

// spanWorker runs one span on its own goroutine. Its slices and the
// flag come in as arguments, not captures, so preds and stop stay off
// the heap on the one-worker calls that never spawn.
func (p *Plan) spanWorker(run *spanRun, images [][]float32, preds []int, base int, stop *atomic.Bool) {
	defer run.wg.Done()
	if stop.Load() {
		return
	}
	if err := p.runSpan(images, preds, base, stop); err != nil && !errors.Is(err, errStopped) {
		run.mu.Lock()
		if run.err == nil {
			run.err = err
		}
		run.mu.Unlock()
		stop.Store(true)
	}
}

// runSpan classifies one span out of one scratch, repairing and
// recycling it on failure.
func (p *Plan) runSpan(images [][]float32, preds []int, base int, stop *atomic.Bool) error {
	s := p.scratch(stop)
	if err := p.chunkSpan(images, preds, base, s); err != nil {
		p.pm.inferErrs.Inc()
		p.failRelease(s)
		return err
	}
	p.released(s)
	p.arena.Put(s)
	return nil
}

// chunkSpan classifies images into preds chunk by chunk; base is the
// absolute batch index of images[0], so errors attribute to the right
// image whichever span they fall in. A one-image chunk, and every chunk
// of a plan off the batched lane, takes the per-image lane (the float64
// GEMV for linears): one column would waste 15/16 of a linear's 16-wide
// panels.
func (p *Plan) chunkSpan(images [][]float32, preds []int, base int, s *scratch) error {
	want, width := p.inC*p.inH*p.inW, max(p.chunk, 1)
	for off := 0; off < len(images); off += width {
		end := min(off+width, len(images))
		chunk := images[off:end]
		for j, img := range chunk {
			if len(img) != want {
				return fmt.Errorf("intinfer: image %d: image has %d values, want %d",
					base+off+j, len(img), want)
			}
		}
		var err error
		if len(chunk) == 1 {
			preds[off], err = p.runClass(chunk[0], s)
		} else {
			err = p.runChunk(chunk, preds[off:end], s)
		}
		if err != nil {
			if errors.Is(err, errStopped) {
				return errStopped
			}
			// A mid-chain failure cannot be pinned to one column; report
			// the chunk through its first image, which for a one-image
			// chunk is the image itself.
			return fmt.Errorf("intinfer: image %d: %w", base+off, err)
		}
	}
	return nil
}

// runChunk runs one chunk of 2 ≤ b ≤ p.chunk images through the step
// chain and writes each image's class to preds.
func (p *Plan) runChunk(images [][]float32, preds []int, s *scratch) error {
	b := len(images)
	act, err := p.chunkCodes(images, s)
	if err != nil {
		return err
	}
	// Argmax per column over the final codes. The output scale is
	// positive, so code argmax equals logit argmax.
	rows := len(act.data) / b
	for j := range preds {
		best := 0
		for r := 1; r < rows; r++ {
			if act.data[r*b+j] > act.data[best*b+j] {
				best = r
			}
		}
		preds[j] = best
	}
	s.put(act.data)
	return nil
}

// chunkCodes quantizes a chunk and executes the step chain over it,
// returning the final codes batch-innermost (owned by the scratch
// arena). The quantizer writes image j as column j of the chunk's k×b
// offset-u8 matrix (element e at e·b + j), which a leading linear takes
// as its B operand directly; any other first step gets the codes
// widened.
func (p *Plan) chunkCodes(images [][]float32, s *scratch) (activation, error) {
	b := len(images)
	p.pm.infers.Add(int64(b))
	u8 := s.u8[:p.inC*p.inH*p.inW*b]
	inv := 1 / float64(p.inScale)
	for j, img := range images {
		kernels.QuantizeU8(u8[j:], img, b, inv)
	}
	act := activation{u8: u8, c: p.inC, h: p.inH, w: p.inW}
	if !p.linearFirst() {
		act = p.widen(u8, s)
	}
	return p.runSteps(act, b, s)
}

// widen turns the quantizer's offset-u8 codes into the chain's first
// int32 activation, of the plan's input shape.
func (p *Plan) widen(u8 []uint8, s *scratch) activation {
	act := activation{data: s.get(len(u8)), c: p.inC, h: p.inH, w: p.inW}
	for i, v := range u8 {
		act.data[i] = int32(v) - 128
	}
	return act
}

// linearFirst reports whether the plan's first step past any flattens
// is a linear, which can take the quantizer's offset-u8 matrix as is.
func (p *Plan) linearFirst() bool {
	for i := range p.steps {
		if p.steps[i].kind != kindFlatten {
			return p.steps[i].kind == kindLinear
		}
	}
	return false
}

// gemm8Batch runs one batched linear: PackBBlocked lays the k×b
// offset-u8 matrix u8 out as panels with the step's (NR, KC) traversal,
// then Gemm8Blocks, the kernel a conv step also runs, computes them in
// MR-row blocks.
func gemm8Batch(s *scratch, dst []int32, pa *kernels.PackedA, u8 []uint8,
	b int, t kernels.Tile, mult float64, lo, hi int32) {
	pb := s.bpack[:kernels.PackBSize(pa.K, b)]
	kernels.PackBBlocked(pb, u8, pa.K, b, t.NR, t.KC)
	kernels.Gemm8Blocks(dst, pa, pb, b, t.MR, mult, lo, hi)
}
