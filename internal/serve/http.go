package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// maxBodyBytes bounds a classify request body. The largest demo model
// takes 192 floats; even generous models fit far under a megabyte of
// JSON, and an unbounded body is a memory-exhaustion vector.
const maxBodyBytes = 1 << 20

// maxPooledBody caps the body buffers bodyBufs keeps: a classify body is
// a few KiB, and one that grew a buffer toward maxBodyBytes must not
// keep it alive in the pool.
const maxPooledBody = 64 << 10

// bodyBufs recycles the buffers classify bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// retryAfter is the Retry-After hint, in seconds, on 429, 503 and 409
// responses.
const retryAfter = "1"

// classifyRequest is the POST /v1/classify body.
type classifyRequest struct {
	Image []float32 `json:"image"`
	// DeadlineMs is the client's serving deadline; 0 means the server
	// default. Clamped to Config.MaxDeadline; negative is a client bug
	// and rejected 400.
	DeadlineMs int64 `json:"deadline_ms"`
	// Budget is a TR group-budget hint, snapped onto the server's
	// ladder; 0 means the top rung. Rejected 400 when combined with
	// Quality.
	Budget int `json:"budget,omitempty"`
	// Quality is the dial in relative form: 0.0 = lowest rung, 1.0 =
	// highest, mapped onto the ladder without the client knowing the
	// budget values. Mutually exclusive with Budget.
	Quality *float64 `json:"quality,omitempty"`
}

// classifyResponse is the success body. Budget echoes the rung the
// request actually ran at — under the degradation policy it can be
// lower than the hint, flagged by Degraded.
type classifyResponse struct {
	Class     int   `json:"class"`
	BatchSize int   `json:"batch_size"`
	QueueUs   int64 `json:"queue_us"`
	Budget    int   `json:"budget,omitempty"`
	Degraded  bool  `json:"degraded,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the serving mux:
//
//	POST /v1/classify  classify one image (JSON in/out)
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text exposition (trq_serve_* and the
//	                   runtime's trq_intinfer_*/trq_kernel_* families)
//	     /debug/*      expvar + pprof, as on the obs endpoint
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	oh := obs.Handler(s.cfg.Obs)
	mux.Handle("/metrics", oh)
	mux.Handle("/debug/", oh)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status       string `json:"status"`
		ModelVersion string `json:"model_version,omitempty"`
	}{"ok", s.ModelVersion()})
}

// handleReload drives the hot-swap path: rebuild the model from the
// boot-configured source and swap it in between micro-batches. The
// request carries no body — the reload source is fixed at boot, so a
// client can trigger a reload but never choose what gets loaded.
func (s *Server) handleReload(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	version, err := s.Reload(req.Context())
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, struct {
			Status       string `json:"status"`
			ModelVersion string `json:"model_version,omitempty"`
		}{"reloaded", version})
	case errors.Is(err, ErrNoReload):
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrReloadBusy):
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func (s *Server) handleClassify(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	in, err := s.readClassify(w, req)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(in.Image) != s.inLen {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("image has %d values, the model wants %d", len(in.Image), s.inLen)})
		return
	}
	if in.DeadlineMs < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("deadline_ms must not be negative, got %d", in.DeadlineMs)})
		return
	}
	budget, err := s.requestBudget(in)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	deadline := s.cfg.DefaultDeadline
	if in.DeadlineMs > 0 {
		// Clamp in milliseconds first: a deadline_ms past MaxInt64
		// nanoseconds would wrap to a negative Duration and expire at once.
		deadline = s.cfg.MaxDeadline
		if in.DeadlineMs <= s.cfg.MaxDeadline.Milliseconds() {
			deadline = time.Duration(in.DeadlineMs) * time.Millisecond
		}
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(req.Context(), deadline)
	defer cancel()
	res, err := s.ClassifyBudget(ctx, in.Image, budget)
	s.met.latency.Observe(time.Since(start).Seconds())
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, classifyResponse{Class: res.Class,
			BatchSize: res.BatchSize, QueueUs: res.QueueWait.Microseconds(),
			Budget: res.Budget, Degraded: res.Degraded})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "deadline exceeded"})
	case errors.Is(err, context.Canceled):
		// The client hung up; the status is best-effort for proxies.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request cancelled"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// readClassify reads the request body once, through the size cap, into
// a pooled buffer and decodes it: in one pass when decodeClassify handles
// the bytes, otherwise with encoding/json over the same bytes, so every
// malformed body keeps the reference decoder's error. Because the whole
// body is read, one over maxBodyBytes is a *http.MaxBytesError even when
// a valid object ends before the cap. The decoded request holds no
// reference to the buffer, which goes back to the pool on return.
func (s *Server) readClassify(w http.ResponseWriter, req *http.Request) (classifyRequest, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer putBody(buf)
	var in classifyRequest
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, maxBodyBytes)); err != nil {
		return in, err
	}
	if decodeClassify(buf.Bytes(), s.inLen, &in) {
		return in, nil
	}
	in = classifyRequest{}
	err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&in)
	return in, err
}

// putBody returns a body buffer to bodyBufs unless it outgrew
// maxPooledBody.
//
//trlint:arena-release
func putBody(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBody {
		return
	}
	buf.Reset()
	bodyBufs.Put(buf)
}

// requestBudget validates and resolves the body's quality hints into a
// budget for ClassifyBudget: 0 when no hint was given (the top rung),
// the exact Budget, or Quality mapped across the ladder (0.0 = lowest
// rung, 1.0 = highest, nearest rung in between). Both hints at once, or
// a hint outside its domain, are client errors.
func (s *Server) requestBudget(in classifyRequest) (int, error) {
	if in.Budget == 0 && in.Quality == nil {
		return 0, nil
	}
	if in.Budget != 0 && in.Quality != nil {
		return 0, errors.New("budget and quality are mutually exclusive")
	}
	if in.Quality != nil {
		q := *in.Quality
		if q < 0 || q > 1 {
			return 0, fmt.Errorf("quality must be in [0, 1], got %g", q)
		}
		budgets := s.Budgets()
		return budgets[int(q*float64(len(budgets)-1)+0.5)], nil
	}
	if in.Budget < 0 {
		return 0, fmt.Errorf("budget must not be negative, got %d", in.Budget)
	}
	return in.Budget, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The connection is gone; there is no one left to tell.
		return
	}
}
