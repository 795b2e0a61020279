package intinfer

import (
	"context"
	"errors"
	"testing"
	"time"
)

// bigBatch repeats the test images until the batch is n images long —
// large enough that a deadline in the low milliseconds must fire
// mid-batch rather than after it.
func bigBatch(images [][]float32, n int) [][]float32 {
	batch := make([][]float32, n)
	for i := range batch {
		batch[i] = images[i%len(images)]
	}
	return batch
}

// TestClassifyContextMatchesClassify pins that threading a live context
// changes nothing about the result.
func TestClassifyContextMatchesClassify(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 8; i++ {
		want, err := plan.Classify(test.Images[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.ClassifyContext(ctx, test.Images[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("image %d: ClassifyContext=%d, Classify=%d", i, got, want)
		}
		// The no-cancellation fast path must agree too.
		got, err = plan.ClassifyContext(context.Background(), test.Images[i])
		if err != nil || got != want {
			t.Fatalf("image %d: background ClassifyContext=(%d,%v), want %d", i, got, err, want)
		}
	}
}

// TestPreCancelledContextReturnsPromptly is the regression test for the
// uncancellable serial paths: a context that is already done must come
// back with its error near-instantly, both before any work starts and
// from the middle of a large serial batch, without leaking the internal
// errStopped sentinel.
func TestPreCancelledContextReturnsPromptly(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	if _, err := plan.ClassifyContext(ctx, test.Images[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ClassifyContext returned %v, want context.Canceled", err)
	}
	// A big serial batch: thousands of images take hundreds of
	// milliseconds, so a prompt return proves the batch never ran.
	batch := bigBatch(test.Images, 150000)
	if _, err := plan.InferBatchContext(ctx, batch, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled serial InferBatchContext returned %v, want context.Canceled", err)
	}
	if _, err := plan.InferBatchContext(ctx, batch, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled parallel InferBatchContext returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled calls took %v; the batch appears to have run", elapsed)
	}
}

// TestDeadlineCancelsSerialBatchMidFlight arms a deadline that expires
// while a large serial batch is in flight. The batch must stop at a step
// boundary and surface context.DeadlineExceeded — this is the path that
// was entirely uncancellable before the ctx plumbing (the stop flag was
// only ever set by the parallel driver's failure protocol).
func TestDeadlineCancelsSerialBatchMidFlight(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	// 150k MLP images on the batched lane (~1µs each) take well over
	// 100ms on any hardware this repo targets; the 5ms deadline must
	// therefore fire mid-batch.
	batch := bigBatch(test.Images, 150000)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = plan.InferBatchContext(ctx, batch, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("serial batch under a 5ms deadline returned %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, errStopped) {
		t.Errorf("internal errStopped sentinel leaked: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; the batch appears to have run to completion", elapsed)
	}
	// The arena must have been repaired: a plain inference still works.
	if _, err := plan.Classify(test.Images[0]); err != nil {
		t.Fatalf("Classify after a cancelled batch failed: %v", err)
	}
}

// TestDeadlineCancelsParallelBatch is the same contract through the
// worker-pool driver.
func TestDeadlineCancelsParallelBatch(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	batch := bigBatch(test.Images, 300000)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = plan.InferBatchContext(ctx, batch, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parallel batch under a 5ms deadline returned %v, want context.DeadlineExceeded", err)
	}
	if _, err := plan.Classify(test.Images[0]); err != nil {
		t.Fatalf("Classify after a cancelled batch failed: %v", err)
	}
}

// TestInferBatchContextMatchesInferBatch pins the live-context batch
// results against the plain paths, serial and parallel.
func TestInferBatchContextMatchesInferBatch(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	images := test.Images[:48]
	want, err := plan.InferBatch(images)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, workers := range []int{1, 4} {
		got, err := plan.InferBatchContext(ctx, images, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d image %d: got %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestInferBatchContextWrapsRealErrors checks a genuine failure under a
// live context still comes back with the image index, not a context
// error.
func TestInferBatchContextWrapsRealErrors(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	batch := bigBatch(test.Images, 40)
	batch[7] = make([]float32, 3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, workers := range []int{1, 4} {
		_, err := plan.InferBatchContext(ctx, batch, workers)
		if err == nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: bad image surfaced %v, want a wrapped inference error", workers, err)
		}
	}
}
