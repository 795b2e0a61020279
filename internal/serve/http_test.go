package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
	return rec
}

// TestMalformedNumeralsKeepReferenceError is the non-finite shield: each
// numeral strconv.ParseFloat would accept but JSON forbids answers 400
// with exactly the body the encoding/json decoder produced for it before
// the one-pass parser existed, whether it sits in the image or in the
// quality hint; so does a pixel out of float32 range.
func TestMalformedNumeralsKeepReferenceError(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, nil)
	s.startScheduler()
	h := s.Handler()

	img := string(marshal(t, images[0]))
	rest := strings.TrimPrefix(string(marshal(t, images[0][1:])), "[")
	bodies := []string{`{"image":[` + float32Overflow + `,` + rest + `}`}
	for _, n := range badNumerals {
		bodies = append(bodies,
			`{"image":[`+n+`,`+rest+`,"budget":4}`,
			`{"image":`+img+`,"quality":`+n+`}`)
	}
	for _, body := range bodies {
		_, err := decodeReference([]byte(body))
		if err == nil {
			t.Fatalf("encoding/json accepts %.60q", body)
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		got := serveBody(h, []byte(body))
		if got.Code != http.StatusBadRequest || got.Body.String() != want.Body.String() {
			t.Errorf("%.60q: got %d %q, want 400 %q", body, got.Code, got.Body.String(), want.Body.String())
		}
	}
}

// TestHugeDeadlineClampsInsteadOfExpiring is the deadline_ms overflow
// regression test: a deadline past MaxInt64 nanoseconds must clamp to
// MaxDeadline, not wrap to a negative duration that answers 504 at once.
func TestHugeDeadlineClampsInsteadOfExpiring(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, nil)
	s.startScheduler()
	h := s.Handler()
	for _, ms := range []int64{math.MaxInt64/int64(time.Millisecond) + 1, math.MaxInt64} {
		rec := serveBody(h, marshal(t, classifyRequest{Image: images[0], DeadlineMs: ms}))
		if rec.Code != http.StatusOK {
			t.Errorf("deadline_ms %d got %d (%s), want 200", ms, rec.Code, rec.Body.String())
		}
	}
}

// TestBodyCapCountsTrailingBytes pins the body-size rule: the handler
// reads the whole body, so a valid object followed by a MiB of spaces is
// over the cap and answers 413, while trailing bytes within the cap are
// ignored, as json.Decoder ignores them.
func TestBodyCapCountsTrailingBytes(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, nil)
	s.startScheduler()
	h := s.Handler()
	obj := marshal(t, classifyRequest{Image: images[0]})
	for _, tc := range []struct {
		tail string
		want int
	}{
		{" \n} trailing bytes", http.StatusOK},
		{strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge},
	} {
		rec := serveBody(h, append(slices.Clip(obj), tc.tail...))
		if rec.Code != tc.want {
			t.Errorf("object + %d trailing bytes got %d (%s), want %d", len(tc.tail), rec.Code, rec.Body.String(), tc.want)
		}
	}
}

// TestConcurrentClassifyBodies drives the handler from several
// goroutines at once, mixing one-pass bodies with ones the fallback
// decodes (an escaped key), so pooled body buffers are reused across
// concurrent requests: every answer must still be its own image's
// sequential class.
func TestConcurrentClassifyBodies(t *testing.T) {
	plan, images := testPlan(t)
	s := newTestServer(t, nil)
	s.startScheduler()
	h := s.Handler()

	want := make([]int, len(images))
	bodies := make([][]byte, len(images))
	for i, img := range images {
		var err error
		if want[i], err = plan.Classify(img); err != nil {
			t.Fatal(err)
		}
		bodies[i] = marshal(t, classifyRequest{Image: img})
		if i%3 == 0 {
			bodies[i] = bytes.Replace(bodies[i], []byte(`"image"`), []byte(`"im\u0061ge"`), 1)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2*len(images); k++ {
				i := (7*g + k) % len(images)
				rec := serveBody(h, bodies[i])
				var out classifyResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out.Class != want[i] {
					t.Errorf("image %d: got %d %s, want class %d", i, rec.Code, rec.Body.String(), want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzClassifyHandler sends arbitrary raw bodies through the classify
// handler of a running family server. Every answer is 200, 400 or 413,
// a 200 echoes a ladder rung, and once each call returns the queue-depth
// gauge and the in-flight image count read zero. The one exception is a
// body that itself asks for a sub-second deadline: its request may lapse
// (504), and may still sit in the queue when the handler returns, so the
// gauges get until the scheduler has answered it.
func FuzzClassifyHandler(f *testing.F) {
	fam, images := testFamily(f)
	// MaxBatch 1 dispatches a lone request at once instead of holding it
	// for the collect window, so a well-formed body costs microseconds,
	// not a millisecond, and minimizing one stays quick.
	s := newFamilyServer(f, func(c *Config) { c.MaxBatch = 1 })
	s.startScheduler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			f.Error(err)
		}
	})
	h := s.Handler()
	rungs := fam.Budgets()

	img := images[0]
	for _, b := range wireBodies(f, img) {
		f.Add(b)
	}
	for _, b := range []string{
		`{"image":` + string(marshal(f, img)) + `,"deadline_ms":9223372036855,"quality":0}`,
		`{"image":` + string(marshal(f, img)) + `,"deadline_ms":-1}`,
		`{"image":` + string(marshal(f, img)) + `,"budget":-4}`,
		`{"image":` + string(marshal(f, img)) + `,"quality":1.5}`,
		`{"image":` + string(marshal(f, img[1:])) + `}`,
		`{"image":[1,2,3]}`, `{"image":[NaN]}`, `{"budget":1e39}`, `null`, `{}`, ``, `not json`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveBody(h, body)
		switch rec.Code {
		case http.StatusOK:
			var out classifyResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 body %q: %v", rec.Body.String(), err)
			}
			if !slices.Contains(rungs, out.Budget) {
				t.Fatalf("200 echoes budget %d, not a rung of %v", out.Budget, rungs)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusGatewayTimeout:
			in, err := decodeReference(body)
			if err != nil || in.DeadlineMs <= 0 || in.DeadlineMs >= 1000 {
				t.Fatalf("504 for a body with no short deadline: %q", body)
			}
			for start := time.Now(); s.Stats().QueueDepth != 0 || s.Stats().InflightImages != 0; {
				if time.Since(start) > 10*time.Second {
					t.Fatal("lapsed request never left the queue")
				}
				time.Sleep(time.Millisecond)
			}
		default:
			t.Fatalf("status %d (%s) for body %q", rec.Code, rec.Body.String(), body)
		}
		if st := s.Stats(); st.QueueDepth != 0 || st.InflightImages != 0 {
			t.Fatalf("after %d: queue depth %d, in-flight images %d, want 0", rec.Code, st.QueueDepth, st.InflightImages)
		}
	})
}
