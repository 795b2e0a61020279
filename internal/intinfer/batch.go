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

// inferBatchChunks is the serial batch engine of the batched lane — the
// InferBatch regime: one scratch arena, images in chunk-sized slabs on
// the caller's goroutine.
func (p *Plan) inferBatchChunks(images [][]float32, stop *atomic.Bool) ([]int, error) {
	preds := make([]int, len(images))
	s := p.scratch(p.intraWorkers, stop)
	p.pm.batchImages.Add(int64(len(images)))
	if err := p.chunkSpan(images, preds, 0, s); err != nil {
		p.pm.inferErrs.Inc()
		p.failRelease(s)
		return nil, err
	}
	p.released(s)
	p.arena.Put(s)
	return preds, nil
}

// inferBatchChunksParallel fans contiguous spans of the batch across
// workers, each holding its own scratch and running its span as
// chunks — the batched analogue of inferBatchParallel, with the same
// first-error-stops-all contract: a failing span records its error
// once, flips the shared stop flag, and every other worker aborts at
// its next step or row-partition boundary. A flag set externally (the
// ctx-aware wrappers) with no recorded error surfaces errStopped for
// translation. A span holds at least two images, so it still runs
// batched, and whole chunks once a worker gets more than one; a batch
// too small to split runs on the caller's goroutine. Splitting a
// served batch keeps its latency: run as one chunk on one core, closed_cnn's
// p99 read about 35% above the per-image fan-out's.
func (p *Plan) inferBatchChunksParallel(images [][]float32, workers int, stop *atomic.Bool) ([]int, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spans := len(images) / 2; workers > spans {
		workers = spans // at least two images per worker
	}
	if workers <= 1 {
		return p.inferBatchChunks(images, stop)
	}
	p.pm.batchImages.Add(int64(len(images)))
	intra := p.intraWorkers / workers
	if intra < 1 {
		intra = 1
	}
	span := (len(images) + workers - 1) / workers
	if span > p.chunk {
		span = (span + p.chunk - 1) / p.chunk * p.chunk
	}
	preds := make([]int, len(images))
	var (
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for start := 0; start < len(images); start += span {
		end := start + span
		if end > len(images) {
			end = len(images)
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			if stop.Load() {
				return
			}
			s := p.scratch(intra, stop)
			if err := p.chunkSpan(images[start:end], preds[start:end], start, s); err != nil {
				p.pm.inferErrs.Inc()
				p.failRelease(s)
				if !errors.Is(err, errStopped) {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
				}
				return
			}
			p.released(s)
			p.arena.Put(s)
		}(start, end)
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

// chunkSpan classifies images into preds chunk by chunk; base is the
// absolute batch index of images[0], so errors attribute to the right
// image in both the serial and the span-parallel drivers. A one-image
// chunk takes the per-image lane instead (the float64 GEMV for
// linears): one column would waste 15/16 of a linear's 16-wide panels.
func (p *Plan) chunkSpan(images [][]float32, preds []int, base int, s *scratch) error {
	want := p.inC * p.inH * p.inW
	for off := 0; off < len(images); off += p.chunk {
		end := min(off+p.chunk, len(images))
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
			// the chunk through its first image, like a step error in the
			// per-image batch loop reports the in-flight image.
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
// arena). The quantizer writes the chunk's k×b offset-u8 matrix, which
// a leading linear takes as its B operand directly; any other first
// step gets the codes widened.
func (p *Plan) chunkCodes(images [][]float32, s *scratch) (activation, error) {
	b := len(images)
	p.pm.infers.Add(int64(b))
	n := p.inC * p.inH * p.inW
	act := activation{u8: s.u8[:n*b], c: p.inC, h: p.inH, w: p.inW}
	quantizeColumns(act.u8, images, 1/float64(p.inScale))
	if !p.linearFirst() {
		act.data = s.get(n * b)
		for i, v := range act.u8 {
			act.data[i] = int32(v) - 128
		}
		act.u8 = nil
	}
	return p.runSteps(act, b, s)
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

// quantize is the input quantizer's scalar step, shared by run and
// quantizeColumns: the value times the reciprocal scale, rounded with
// the 2^52 magic constant (see roundMagic) and clamped to the code
// window. ±Inf saturates like any out-of-range value; NaN fails both
// clamps and is mapped to code 0 explicitly rather than left to
// int32(NaN), whose value Go leaves implementation-defined.
func quantize(v float32, inv float64) int32 {
	c := float64(v)*inv + roundMagic - roundMagic
	if c >= -127 && c <= 127 {
		return int32(c)
	}
	if c > 127 {
		return 127
	}
	if c < -127 {
		return -127
	}
	return 0 // NaN
}

// quantizeColumns is the batched input quantizer: image j becomes
// column j of the k×b offset-u8 matrix dst — element e of image j at
// e·b + j, the chunk's batch-innermost layout — through quantize, with
// the +128 offset folded into the store.
//
// The loop is about half of an MLP chunk's CPU and sensitive to its
// placement: inline in the chunk driver, a 136-byte shift of the code
// above it made BenchmarkIntegerInferenceMLP 4–10% slower with the
// loop's instructions unchanged. Out of line it is placed by its own
// code alone, and its index stays in a register.
//
//go:noinline
func quantizeColumns(dst []uint8, images [][]float32, inv float64) {
	b := len(images)
	for j, img := range images {
		col := dst[j:]
		for i, v := range img {
			col[i*b] = uint8(quantize(v, inv) + 128) //trlint:checked quantize returns a code in [-127, 127]
		}
	}
}

// gemm8Batch runs one batched linear: PackBBlocked lays the k×b
// offset-u8 matrix u8 out as panels with the step's (NR, KC) traversal,
// then the row driver shared with conv steps computes them in MR-row
// blocks.
func (p *Plan) gemm8Batch(s *scratch, dst []int32, pa *kernels.PackedA, u8 []uint8,
	b int, t kernels.Tile, mult float64, lo, hi int32) {
	pb := s.bpack[:kernels.PackBSize(pa.K, b)]
	kernels.PackBBlocked(pb, u8, pa.K, b, t.NR, t.KC)
	p.gemm8(s, dst, pa, pb, b, t.MR, mult, lo, hi)
}
