package intinfer

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunObservesStop pins the cooperative-cancellation contract inside a
// single inference: a scratch armed with a set stop flag must abandon the
// step chain with errStopped instead of running the plan to completion.
func TestRunObservesStop(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	stop.Store(true)
	if _, err := plan.classify(test.Images[0], &stop); !errors.Is(err, errStopped) {
		t.Fatalf("classify under a set stop flag returned %v, want errStopped", err)
	}
	// A cleared flag must leave inference untouched, including on a
	// scratch recycled from the cancelled call above.
	stop.Store(false)
	if _, err := plan.classify(test.Images[0], &stop); err != nil {
		t.Fatalf("classify under a cleared stop flag failed: %v", err)
	}
	// Plain Classify threads a nil flag; make sure the cancelled arena
	// left no residue there either.
	if _, err := plan.Classify(test.Images[0]); err != nil {
		t.Fatal(err)
	}
}

// TestParallelMidBatchFailureWrapsIndex injects a failure in the middle
// of a batch — an image whose length no layer accepts — split across
// four spans, so the failing span stops its peers through the shared
// flag. The surfaced error must identify the failing image.
func TestParallelMidBatchFailureWrapsIndex(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float32, 120)
	for i := range batch {
		batch[i] = test.Images[i%len(test.Images)]
	}
	const bad = 60
	batch[bad] = make([]float32, 3)
	_, err = plan.InferBatchContext(context.Background(), batch, 4)
	if err == nil {
		t.Fatal("mid-batch bad image did not surface an error")
	}
	if !strings.Contains(err.Error(), "image 60") {
		t.Errorf("error %q does not identify image %d", err, bad)
	}
	if errors.Is(err, errStopped) {
		t.Errorf("internal errStopped sentinel leaked to the caller: %v", err)
	}
	// The serial batch path wraps the index too.
	if _, err := plan.InferBatch(batch); err == nil ||
		!strings.Contains(err.Error(), "image 60") {
		t.Errorf("InferBatch error %q does not identify image %d", err, bad)
	}
}

// TestParallelFailingLayerMidBatch corrupts a step of a cloned plan so
// the failure comes from inside the executor (a failing layer) rather
// than input validation, and checks the batch still stops with a useful
// error instead of deadlocking or panicking.
func TestParallelFailingLayerMidBatch(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	// The test owns this plan, so corrupting it in place is fine (and a
	// struct copy would illegally copy the arena's sync.Pool).
	plan.steps = append([]step(nil), plan.steps...)
	plan.steps[len(plan.steps)-1].kind = kind(99)

	batch := make([][]float32, 40)
	for i := range batch {
		batch[i] = test.Images[i%len(test.Images)]
	}
	_, err = plan.InferBatchContext(context.Background(), batch, 3)
	if err == nil {
		t.Fatal("failing layer did not surface an error")
	}
	if !strings.Contains(err.Error(), "unknown step kind") {
		t.Errorf("error %q does not point at the failing layer", err)
	}
}
