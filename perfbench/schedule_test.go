package main

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := poissonSchedule(7, 200, 5*time.Second, 4096)
	b := poissonSchedule(7, 200, 5*time.Second, 4096)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 200, 5*time.Second, 4096)) {
		t.Fatal("different seeds produced the same schedule")
	}
	// 1000 expected arrivals; the Poisson count stays within 5 sigma.
	if n := len(a); n < 850 || n > 1150 {
		t.Fatalf("%d arrivals in 5s at 200/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
}

func TestHintMixIsPureAndBalanced(t *testing.T) {
	a, b := hintMix(3, 3000), hintMix(3, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different hint mixes")
	}
	var b4, q1, none int
	for _, h := range a {
		switch {
		case h.Budget == 4 && h.Quality == nil:
			b4++
		case h.Budget == 0 && h.Quality != nil && *h.Quality == 1:
			q1++
		case h.Budget == 0 && h.Quality == nil:
			none++
		default:
			t.Fatalf("unexpected hint %+v", h)
		}
	}
	for name, n := range map[string]int{"budget 4": b4, "quality 1.0": q1, "none": none} {
		if n < 850 || n > 1150 {
			t.Errorf("%s: %d of 3000, want about a third", name, n)
		}
	}
}

// A stalled response on the only sender must be charged to every
// request queued behind it: their latency runs from their due time, not
// from when the generator finally sent them.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	sched := make([]arrival, 6)
	for i := range sched {
		sched[i].Due = time.Duration(i) * 2 * time.Millisecond
	}
	boom := errors.New("boom")
	got := runOpenLoop(time.Now(), sched, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		if i == 5 {
			return boom
		}
		return nil
	})
	for i, s := range got[1:] {
		i++
		if s.Due != sched[i].Due {
			t.Fatalf("request %d: due %v, want %v", i, s.Due, sched[i].Due)
		}
		if s.Sent < stall {
			t.Errorf("request %d sent at %v, before the stalled response returned", i, s.Sent)
		}
		if lat := s.Done - s.Due; lat < stall-s.Due {
			t.Errorf("request %d latency %v does not include the %v it waited", i, lat, stall-s.Due)
		}
	}
	if !errors.Is(got[5].Err, boom) {
		t.Errorf("send error not recorded: %v", got[5].Err)
	}
}
