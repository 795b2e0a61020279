package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one open-loop request: when it is due, relative to the
// start of the timed phase, and which pool image it carries.
type arrival struct {
	Due   time.Duration
	Image int
}

// poissonSchedule draws the open-loop arrivals of one load phase:
// exponential gaps at rate req/s over d, each carrying a uniformly
// drawn pool image. It is a pure function of its arguments, so the
// whole schedule exists before timing starts.
func poissonSchedule(seed int64, rate float64, d time.Duration, pool int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{Due: due, Image: rng.Intn(pool)})
	}
}

// hint is the budget hint one closed-loop request carries: an exact
// budget, the relative quality dial, or neither (the server default).
type hint struct {
	Budget  int
	Quality *float64
}

// hintMix assigns every pool image its hint from the seed: a third ask
// for budget 4, a third for quality 1.0 (the top rung), a third send
// none.
func hintMix(seed int64, n int) []hint {
	rng := rand.New(rand.NewSource(seed))
	top := 1.0
	out := make([]hint, n)
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			out[i].Budget = 4
		case 1:
			out[i].Quality = &top
		}
	}
	return out
}

// sent is what the generator records for one arrival. All times are
// offsets from the phase start. Latency is Done-Due: a request that had
// to wait for a free connection, because an earlier response stalled,
// is charged that wait.
type sent struct {
	Due, Sent, Done time.Duration
	Err             error
}

// runOpenLoop replays a schedule over senders goroutines. Each sender
// takes the next arrival in due order, sleeps until it is due, and
// sends it with send(i). Arrivals are never skipped or re-timed: when
// every sender is busy the next arrival goes out late and its latency,
// measured from its due time, includes the wait. runOpenLoop returns
// after every arrival has completed.
func runOpenLoop(start time.Time, sched []arrival, senders int, send func(i int) error) []sent {
	out := make([]sent, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if d := time.Until(start.Add(sched[i].Due)); d > 0 {
					time.Sleep(d)
				}
				s := sent{Due: sched[i].Due, Sent: time.Since(start)}
				s.Err = send(i)
				s.Done = time.Since(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}
