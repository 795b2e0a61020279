package intinfer

import (
	"context"
	"errors"
	"sync/atomic"
)

// The ctx-aware entry points map context cancellation onto the runtime's
// cooperative stop-flag machinery: a context.AfterFunc sets the shared
// atomic flag the moment the context is done, and the flag is polled
// between plan steps — so a deadline interrupts a batch at its next
// step whether it runs on one goroutine or several. The internal
// errStopped sentinel never escapes: it is translated back into the
// context's own error before returning.

// ClassifyContext is Classify with cooperative cancellation. A context
// that can never be cancelled (Done() == nil, e.g. context.Background())
// takes the plain path with zero overhead; otherwise the inference polls
// the context's state between steps and returns ctx.Err() once it is
// done. A context that is already done returns immediately without
// acquiring a scratch arena.
func (p *Plan) ClassifyContext(ctx context.Context, img []float32) (int, error) {
	if ctx.Done() == nil {
		return p.Classify(img)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var stop atomic.Bool
	unwatch := context.AfterFunc(ctx, func() { stop.Store(true) })
	defer unwatch()
	cls, err := p.classify(img, &stop)
	if errors.Is(err, errStopped) {
		return 0, ctxErr(ctx)
	}
	return cls, err
}

// InferBatchContext classifies a batch under a context, across workers
// goroutines (< 1 = GOMAXPROCS; see inferBatch for how the batch is
// split). workers == 1 runs the batch serially on the caller's goroutine
// out of one scratch arena, as InferBatch does — cancellable all the
// same, because the flag rides in the scratch. A plan is immutable after
// Build, so any number of these calls may run at once. On cancellation
// the batch stops at its next step and returns ctx.Err(); a real
// inference failure stops every worker and comes back wrapped with its
// image index.
func (p *Plan) InferBatchContext(ctx context.Context, images [][]float32, workers int) ([]int, error) {
	if ctx.Done() == nil {
		return p.inferBatch(images, workers, nil)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var stop atomic.Bool
	unwatch := context.AfterFunc(ctx, func() { stop.Store(true) })
	defer unwatch()
	preds, err := p.inferBatch(images, workers, &stop)
	if errors.Is(err, errStopped) {
		return nil, ctxErr(ctx)
	}
	return preds, err
}

// ctxErr is the error a cancelled inference surfaces. The stop flag is
// only ever set by the context's AfterFunc, so by the time errStopped
// comes back the context is done and Err() is non-nil; the fallback
// exists so a future caller misusing the flag still gets a real error
// instead of nil.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}
