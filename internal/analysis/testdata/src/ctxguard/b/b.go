// Fixture: loops ctxguard must accept — every iteration crosses an
// observation of the carrier, or the loop is pure compute with nothing
// to forward the carrier into.
package b

import (
	"context"
	"sync/atomic"
)

var globalStop atomic.Bool

func work() {}

func step(ctx context.Context) {}

// stopped observes through a package-level flag; callers inherit the
// observation via the fixpoint.
func stopped() bool { return globalStop.Load() }

// The loop condition observes: conditions live on the header's edges.
func headerFlag(stop *atomic.Bool) {
	for !stop.Load() {
		work()
	}
}

// An early-exit branch observes on every path through the body.
func bodyErrCheck(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return
		}
		work()
	}
}

// Forwarding the carrier into a call is the per-iteration observation.
func forwards(ctx context.Context, xs []int) {
	for range xs {
		step(ctx)
	}
}

// Calling a same-package helper that observes counts (fixpoint).
func viaHelper(ctx context.Context, xs []int) {
	for range xs {
		if stopped() {
			return
		}
		work()
	}
}

// Select evaluates every clause's channel up front, so a Done case is
// observed whichever clause fires.
func pump(ctx context.Context, ch chan int) {
	for {
		select {
		case <-ctx.Done():
			return
		case v := <-ch:
			_ = v
			work()
		}
	}
}

// Pure compute: no calls to forward a carrier into; the driver checks.
func pure(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	if ctx.Err() != nil {
		return 0
	}
	return s
}

// A worker-spawning loop observes by handing the carrier to each worker.
func spawn(ctx context.Context, xs []int, out chan int) {
	for i := range xs {
		i := i
		go func() {
			select {
			case <-ctx.Done():
			case out <- i:
			}
		}()
	}
}

// observe watches the flag it is handed; a same-package observer.
func observe(stop *atomic.Bool) {
	if stop != nil && stop.Load() {
		return
	}
	work()
}

// A spawned literal that forwards the captured carrier into an observing
// helper has handed it on.
func spawnForwards(stop *atomic.Bool, xs []int) {
	for range xs {
		go func() {
			observe(stop)
		}()
	}
}

// A go statement that forwards the carrier has handed it on.
func goForwards(stop *atomic.Bool, xs []int) {
	for range xs {
		go observe(stop)
	}
}
