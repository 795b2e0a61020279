// Fixture: loops ctxguard must flag — functions handed a cancellation
// carrier whose loops run full iterations without ever observing it.
package a

import (
	"context"
	"sync/atomic"
)

func work() {}

func spinCtx(ctx context.Context, n int) {
	for i := 0; i < n; i++ { // want "loop never observes cancellation of ctx"
		work()
	}
}

func spinStop(stop *atomic.Bool, xs []int) {
	for range xs { // want "loop never observes cancellation of stop"
		work()
	}
}

// Checking before the loop is not checking per iteration.
func checkOnce(ctx context.Context, xs []int) {
	if ctx.Err() != nil {
		return
	}
	for range xs { // want "loop never observes cancellation of ctx"
		work()
	}
}

// Observing on one branch only: the other branch still completes blind
// iterations.
func oneBranch(ctx context.Context, xs []int, rare bool) {
	for range xs { // want "loop never observes cancellation of ctx"
		if rare {
			if ctx.Err() != nil {
				return
			}
		}
		work()
	}
}

// observe watches the flag it is handed; a same-package observer.
func observe(stop *atomic.Bool) {
	if stop != nil && stop.Load() {
		return
	}
	work()
}

// Spawned literals that call an observing helper without a carrier have
// handed nothing on: no goroutine the loop starts can be stopped.
func spawnDropsCarrier(stop *atomic.Bool, xs []int) {
	for range xs { // want "loop never observes cancellation of stop"
		go func() {
			observe(nil)
		}()
	}
}

// The same drop through a go statement: the goroutine runs an observer
// that was handed no carrier.
func goDropsCarrier(stop *atomic.Bool, xs []int) {
	for range xs { // want "loop never observes cancellation of stop"
		go observe(nil)
	}
}
