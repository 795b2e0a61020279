package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or a few seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientDisconnectsLeaveNothingBehind: two clients hang up mid
// request. One closes its connection after its classify was admitted,
// while the request waits in a batch window held open by a long
// MaxDelay; the other closes halfway through sending its body. After
// Drain the server keeps nothing of either: the goroutine count is back
// to its baseline, the queue and in-flight gauges read 0, the one
// admitted request was answered exactly once, and both handlers
// returned.
func TestClientDisconnectsLeaveNothingBehind(t *testing.T) {
	_, images := testPlan(t)
	baseline := runtime.NumGoroutine()

	s := newTestServer(t, func(c *Config) { c.MaxDelay = time.Hour })
	s.startScheduler()
	var entered, returned atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Add(1)
		defer returned.Add(1)
		h.ServeHTTP(w, r)
	}))

	body, err := json.Marshal(classifyRequest{Image: images[0]})
	if err != nil {
		t.Fatal(err)
	}
	send := func(payload []byte) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		head := fmt.Sprintf("POST /v1/classify HTTP/1.1\r\nHost: %s\r\n"+
			"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n",
			ts.Listener.Addr(), len(body))
		if _, err := conn.Write(append([]byte(head), payload...)); err != nil {
			t.Fatal(err)
		}
		return conn
	}

	// Client 1: the whole request, admitted and held in the window (the
	// queue gauge drops only at dispatch), then a hang-up.
	held := send(body)
	waitFor(t, "the request's admission", func() bool { return s.Stats().QueueDepth == 1 })
	held.Close()
	waitFor(t, "the held request's handler to return", func() bool { return returned.Load() == 1 })

	// Client 2: half a body, then a hang-up.
	half := send(body[:len(body)/2])
	waitFor(t, "the half-body handler to start", func() bool { return entered.Load() == 2 })
	half.Close()
	waitFor(t, "both handlers to return", func() bool { return returned.Load() == 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	const admitted = 1
	st := s.Stats()
	if st.QueueDepth != 0 || st.InflightImages != 0 || st.InflightBatches != 0 {
		t.Errorf("after drain: queue depth %d, in-flight images %d, in-flight batches %d; want 0",
			st.QueueDepth, st.InflightImages, st.InflightBatches)
	}
	if answered := st.OK + st.Timeout + st.Errors; answered != admitted {
		t.Errorf("answered %d requests (ok %d, timeout %d, errors %d), admitted %d",
			answered, st.OK, st.Timeout, st.Errors, admitted)
	}
	if st.Shed != 0 || st.Draining != 0 || st.BatchImages != admitted {
		t.Errorf("shed %d, draining %d, batch images %d; want 0, 0, %d",
			st.Shed, st.Draining, st.BatchImages, admitted)
	}
	if n := entered.Load(); n != 2 || returned.Load() != n {
		t.Errorf("%d handlers entered, %d returned; want 2 and 2", n, returned.Load())
	}
	waitFor(t, fmt.Sprintf("the goroutine count to fall back to %d", baseline),
		func() bool { return runtime.NumGoroutine() <= baseline })
}
