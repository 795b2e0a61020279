package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/intinfer"
)

// TestSwapUnderLoadDropsNothing is the zero-downtime property in
// miniature: concurrent clients classify continuously while another
// goroutine hot-swaps the model repeatedly. Every request must either
// succeed or shed (429-equivalent); a swap must never surface an error
// or a wrong-length answer.
func TestSwapUnderLoadDropsNothing(t *testing.T) {
	fam, images := testRung(t)
	s := newTestServer(t, func(c *Config) { c.ModelVersion = "v0"; c.Workers = 2 })
	s.startScheduler()
	defer s.Drain(context.Background())

	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	var swaps atomic.Int64
	var swapErr atomic.Pointer[error]
	go func() {
		defer close(swapperDone)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			// Same compiled family under a new version label: the swap
			// machinery (pointer flip + retired-generation drain) is what
			// is under test, not compilation.
			if err := s.Swap(context.Background(), fam, fmt.Sprintf("v%d", i)); err != nil {
				swapErr.Store(&err)
				return
			}
			swaps.Add(1)
		}
	}()

	var wg sync.WaitGroup
	var served, shed atomic.Int64
	var reqErr atomic.Pointer[error]
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			deadline := time.Now().Add(300 * time.Millisecond)
			for i := 0; time.Now().Before(deadline); i++ {
				_, err := s.Classify(context.Background(), images[(c+i)%len(images)])
				switch {
				case err == nil:
					served.Add(1)
				case err == ErrQueueFull:
					shed.Add(1)
				default:
					reqErr.Store(&err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// A swap already past the stop check still lands after close(stop);
	// wait for the swapper to exit so the count below is final.
	close(stop)
	<-swapperDone
	if p := reqErr.Load(); p != nil {
		t.Fatalf("request failed under hot-swap: %v", *p)
	}
	if p := swapErr.Load(); p != nil {
		t.Fatalf("swap failed: %v", *p)
	}
	nswaps := swaps.Load()
	if nswaps < 2 {
		t.Fatalf("only %d swaps landed during the load window", nswaps)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served")
	}
	st := s.Stats()
	if st.Errors != 0 {
		t.Fatalf("%d server errors under hot-swap", st.Errors)
	}
	if got := s.ModelVersion(); got != fmt.Sprintf("v%d", nswaps) {
		t.Fatalf("serving version %q after %d swaps", got, nswaps)
	}
}

// TestSwapValidatesShape pins what a hot-swap must keep: the boot
// ladder, checked in both directions (a one-rung server refuses the
// three-rung family and the other way round), and a family at all.
func TestSwapValidatesShape(t *testing.T) {
	fam, _ := testFamily(t)
	one, _ := testRung(t)

	s := newTestServer(t, nil) // one rung
	if err := s.Swap(context.Background(), fam, "v1"); err == nil {
		t.Fatal("one-rung server accepted a three-rung family")
	}
	if err := s.Swap(context.Background(), nil, "v1"); err == nil {
		t.Fatal("accepted a swap without a family")
	}

	fs := newFamilyServer(t, nil) // three rungs
	if err := fs.Swap(context.Background(), one, "v1"); err == nil {
		t.Fatal("three-rung server accepted a one-rung family")
	}
	if err := fs.Swap(context.Background(), fam, "v1"); err != nil {
		t.Fatalf("ladder-identical family swap refused: %v", err)
	}
	if got := fs.ModelVersion(); got != "v1" {
		t.Fatalf("version is %q after swap", got)
	}
}

func TestReloadEndpoint(t *testing.T) {
	fam, images := testRung(t)
	var builds atomic.Int64
	s := newTestServer(t, func(c *Config) {
		c.ModelVersion = "boot"
		c.Reload = func(ctx context.Context) (*intinfer.Family, string, error) {
			builds.Add(1)
			return fam, fmt.Sprintf("r%d", builds.Load()), nil
		}
	})
	s.startScheduler()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz reports the boot version.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		ModelVersion string `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.ModelVersion != "boot" {
		t.Fatalf("healthz reports version %q, want boot", health.ModelVersion)
	}

	// GET is refused.
	resp, err = http.Get(ts.URL + "/v1/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/reload gave %d, want 405", resp.StatusCode)
	}

	// POST swaps and reports the new version.
	resp, err = http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Status       string `json:"status"`
		ModelVersion string `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.ModelVersion != "r1" {
		t.Fatalf("reload gave %d %+v", resp.StatusCode, out)
	}
	if got := s.ModelVersion(); got != "r1" {
		t.Fatalf("serving version is %q after reload", got)
	}

	// Classification still works on the swapped model.
	body, _ := json.Marshal(map[string]any{"image": images[0]})
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify after reload gave %d", resp.StatusCode)
	}
	if st := s.Stats(); st.Reloads != 1 || st.ReloadErrors != 0 {
		t.Fatalf("reload counters %d/%d, want 1/0", st.Reloads, st.ReloadErrors)
	}
}

func TestReloadWithoutSourceIs501(t *testing.T) {
	s := newTestServer(t, nil)
	s.startScheduler()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without a source gave %d, want 501", resp.StatusCode)
	}
}

func TestReloadSerializes(t *testing.T) {
	fam, _ := testRung(t)
	release := make(chan struct{})
	started := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Reload = func(ctx context.Context) (*intinfer.Family, string, error) {
			close(started)
			<-release
			return fam, "slow", nil
		}
	})
	s.startScheduler()
	defer s.Drain(context.Background())

	done := make(chan error, 1)
	go func() {
		_, err := s.Reload(context.Background())
		done <- err
	}()
	<-started
	if _, err := s.Reload(context.Background()); err != ErrReloadBusy {
		t.Fatalf("concurrent reload gave %v, want ErrReloadBusy", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first reload failed: %v", err)
	}
	if st := s.Stats(); st.Reloads != 1 {
		t.Fatalf("%d reloads recorded, want 1", st.Reloads)
	}
}
