package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Open-loop shape of http_mlp: Poisson arrivals at httpRate from this
// one process, through one HTTP client that keeps at most httpKeepAlive
// idle connections, as Go's default transport does. A request due while
// every kept connection is busy dials a new one rather than waiting, so
// arrivals leave on time; httpSenders bounds how many can be in flight.
const (
	httpRate      = 200.0
	httpKeepAlive = 2
	httpSenders   = 32
)

// control is the client for the benchmark's own calls to trserve
// (health, scrapes, reloads), as opposed to the measured load.
var control = &http.Client{Timeout: 10 * time.Second}

// bootLine is one line trserve printed, stamped with its time since
// spawn.
type bootLine struct {
	at   time.Duration
	text string
}

// child is one running trserve process and what its boot revealed.
type child struct {
	cmd      *exec.Cmd
	addr     string
	stderr   bytes.Buffer
	readDone chan struct{} // closed once trserve's stdout reaches EOF
	// Boot timeline, from spawn: trserve's "loading", "compiling" and
	// "serving" stdout lines, and the first 200 from /healthz.
	loading, compiling, serving, ready time.Duration
}

// bootTrserve spawns trserve on an ephemeral port over the MLP artifact
// with the 4,8,12 ladder and returns once /healthz answers 200. The
// timeline comes from trserve's own stdout, read as it is written.
func bootTrserve(bin, artifactPath string, tr *tracer) (*child, error) {
	c := &child{readDone: make(chan struct{})}
	c.cmd = exec.Command(bin, "-artifact", artifactPath, "-addr", "127.0.0.1:0", "-budgets", "4,8,12")
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	sp := tr.begin("trserve.boot", -1, -1)
	defer tr.end(sp)
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start trserve: %w", err)
	}
	// trserve prints three lines while booting and two while draining;
	// lines that find the buffer full are dropped, never blocked on.
	lines := make(chan bootLine, 16)
	go func() {
		defer close(c.readDone)
		defer close(lines)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case lines <- bootLine{time.Since(t0), sc.Text()}:
			default:
			}
		}
	}()
	deadline := time.After(30 * time.Second)
	for c.addr == "" {
		select {
		case ln, ok := <-lines:
			if !ok {
				c.stop()
				return nil, fmt.Errorf("trserve exited before serving: %s", strings.TrimSpace(c.stderr.String()))
			}
			switch {
			case strings.Contains(ln.text, "loading model from"):
				c.loading = ln.at
			case strings.Contains(ln.text, "compiling the"):
				c.compiling = ln.at
			case strings.Contains(ln.text, "serving "):
				c.serving = ln.at
				if _, rest, ok := strings.Cut(ln.text, "http://"); ok {
					c.addr, _, _ = strings.Cut(rest, " ")
				}
			}
		case <-deadline:
			c.stop()
			return nil, errors.New("trserve did not report its address within 30s")
		}
	}
	for {
		resp, err := control.Get("http://" + c.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.ready = time.Since(t0)
				return c, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			c.stop()
			return nil, fmt.Errorf("trserve never answered /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains trserve with SIGTERM and waits for it to exit, killing
// it if the drain hangs. trserve installs its SIGTERM handler just
// after it starts serving, so a boot stopped right after its first
// /healthz may still die of the signal itself; that counts as stopped.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err == nil {
		select {
		case <-c.readDone:
		case <-time.After(15 * time.Second):
			c.cmd.Process.Kill()
			<-c.readDone
		}
	}
	err := c.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

func (c *child) get(path string) ([]byte, error) {
	resp, err := control.Get("http://" + c.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

func (c *child) metrics() (series, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

func (c *child) mem() (memCounters, error) {
	body, err := c.get("/debug/vars")
	if err != nil {
		return memCounters{}, err
	}
	return parseExpvarMem(bytes.NewReader(body))
}

// httpPhase is one boot's open-loop load phase.
type httpPhase struct {
	t               *tally
	wall, cpu       time.Duration
	late            []float64 // send lateness, µs
	achieved        float64   // arrivals sent per second of schedule
	rss             float64
	metrics         series
	mem             memCounters
	clientRoundTrip float64 // mean send-to-reply, µs
	layers          layers  // traced runs only
}

// loadPhase replays a seeded Poisson schedule of d against the child
// and checks every answer.
func loadPhase(c *child, seed int64, d time.Duration, bodies [][]byte, want []int, r *refs, tr *tracer, trace bool) (*httpPhase, error) {
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: httpKeepAlive, DisableCompression: true}}
	defer client.CloseIdleConnections()
	url := "http://" + c.addr + "/v1/classify"
	post := func(img int) ([]byte, int, error) {
		resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[img]))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return body, resp.StatusCode, err
	}
	// Warm the kept connections and the server before the timed schedule.
	for i := 0; i < 100; i++ {
		if _, code, err := post(i); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %d: status %d: %v", i, code, err)
		}
	}
	sched := poissonSchedule(seed, httpRate, d, len(bodies))
	ph := &httpPhase{t: &tally{}}
	var err error
	if trace {
		if ph.metrics, err = c.metrics(); err != nil {
			return nil, err
		}
		if ph.mem, err = c.mem(); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(c.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	type outcome struct {
		body []byte
		code int
	}
	replies := make([]outcome, len(sched))
	start := time.Now().Add(5 * time.Millisecond)
	sent := runOpenLoop(start, sched, httpSenders, func(i int) error {
		sp := tr.begin("client.POST /v1/classify", -1, int64(i))
		defer tr.end(sp)
		body, code, err := post(sched[i].Image)
		replies[i] = outcome{body, code}
		return err
	})
	cpu1, err := procCPU(c.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var last time.Duration
	var rtt time.Duration
	for i, s := range sent {
		last = max(last, s.Done)
		rtt += s.Done - s.Sent
		ph.late = append(ph.late, float64(s.Sent-s.Due)/1e3)
		ph.t.attempted++
		img := sched[i].Image
		switch {
		case s.Err != nil:
			ph.t.fail(false, fmt.Errorf("image %d: %w", img, s.Err))
		case replies[i].code != http.StatusOK:
			ph.t.fail(false, fmt.Errorf("image %d: status %d: %s", img, replies[i].code, bytes.TrimSpace(replies[i].body)))
		default:
			ph.t.lat = append(ph.t.lat, float64(s.Done-s.Due)/1e6)
			if err := checkReply(replies[i].body, img, want[img], r); err != nil {
				ph.t.fail(true, err)
				continue
			}
			ph.t.ok++
		}
	}
	ph.wall = last
	ph.cpu = cpu1 - cpu0
	if n := len(sent); n > 1 {
		ph.achieved = float64(n-1) / (sent[n-1].Sent - sent[0].Sent).Seconds()
		ph.clientRoundTrip = float64(rtt.Microseconds()) / float64(n)
		if planned := float64(n-1) / (sched[n-1].Due - sched[0].Due).Seconds(); ph.achieved < 0.95*planned {
			return nil, fmt.Errorf("void run: the generator fell behind schedule (sent %.1f req/s of %.1f planned)", ph.achieved, planned)
		}
	}
	if ph.rss, err = peakRSSMiB(strconv.Itoa(c.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	if trace {
		after, err := c.metrics()
		if err != nil {
			return nil, err
		}
		mem, err := c.mem()
		if err != nil {
			return nil, err
		}
		ph.metrics, ph.mem = after.sub(ph.metrics), mem.sub(ph.mem)
	}
	return ph, nil
}

// reloadMs times POST /v1/reload on an idle server, n times.
func reloadMs(c *child, n int, tr *tracer) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		sp := tr.begin("client.POST /v1/reload", -1, int64(i))
		t0 := time.Now()
		resp, err := control.Post("http://"+c.addr+"/v1/reload", "application/json", nil)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		el := time.Since(t0)
		tr.end(sp)
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("reload: status %d", resp.StatusCode)
		}
		out = append(out, el.Seconds()*1e3)
	}
	return out, nil
}

// runHTTP measures http_mlp: boots trserve httpBootsN times for
// set-up samples and drives the first httpLoadedN boots with the
// open-loop schedule for an equal share of seconds each. Each loaded
// boot is one latency window; server CPU per request and RSS are
// medians over them.
func runHTTP(w workload, o *options, p *prepared, seconds float64, trace bool) (*measurement, error) {
	tr := newTracer(trace)
	imgs := w.images(o.seed, p.model())
	bodies, want, err := encodeBodies(imgs, nil, p.Budgets[len(p.Budgets)-1])
	if err != nil {
		return nil, err
	}
	m := &measurement{t: &tally{}}
	var (
		rss, late, achieved, cpu []float64
		wall                     time.Duration
		all                      []layers
	)
	for b := 0; b < httpBootsN; b++ {
		c, err := bootTrserve(o.trserve, p.Artifact, tr)
		if err != nil {
			return nil, err
		}
		ph, err := useBoot(c, b, w, o, p, secs(seconds/httpLoadedN), bodies, want, tr, trace)
		if serr := c.stop(); err == nil && serr != nil {
			err = fmt.Errorf("trserve exit: %w: %s", serr, strings.TrimSpace(c.stderr.String()))
		}
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, c.ready.Seconds())
		if ph == nil {
			continue
		}
		m.t.merge(ph.t)
		m.windows = append(m.windows, summarize(ph.t.lat))
		wall += ph.wall
		cpu = append(cpu, div(float64(ph.cpu.Microseconds()), float64(ph.t.ok)))
		rss = append(rss, ph.rss)
		late = append(late, ph.late...)
		achieved = append(achieved, ph.achieved)
		if ph.layers != nil {
			all = append(all, ph.layers)
		}
	}
	m.lat = windowed(m.windows)
	m.e2e = map[string]float64{
		"setup_s":          median(m.setups),
		"latency_p50_ms":   m.lat.P50,
		"latency_p99_ms":   m.lat.P99,
		"throughput_per_s": div(float64(m.t.ok), wall.Seconds()),
		"cpu_us_per_req":   median(cpu),
		"peak_rss_mb":      median(rss),
	}
	if trace {
		m.layers = medianLayers(all)
		sort.Float64s(late)
		m.layers["gen.late_p99_us"] = percentile(late, 99)
		m.layers["gen.achieved_rps"] = median(achieved)
		if err := tr.write(o.spansPath()); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// useBoot checks that boot b of trserve read every tile from the warm
// cache and, for the first httpLoadedN boots, runs a load phase. In a
// traced run the phase carries its layer metrics, and the first boot
// adds its set-up breakdown and the idle reload times.
func useBoot(c *child, b int, w workload, o *options, p *prepared, d time.Duration, bodies [][]byte, want []int, tr *tracer, trace bool) (*httpPhase, error) {
	boot, err := c.metrics()
	if err != nil {
		return nil, err
	}
	if n := boot.get("trq_kernels_autotune_total", "outcome", "measured"); n != 0 {
		return nil, fmt.Errorf("void run: trserve boot %d tuned %v tiles instead of reading the warm cache", b, n)
	}
	if b >= httpLoadedN {
		return nil, nil
	}
	ph, err := loadPhase(c, o.seed*1000+int64(b), d, bodies, want, &p.Refs, tr, trace)
	if err != nil || !trace {
		return ph, err
	}
	l := layers{}
	serveLayers(l, ph.metrics, ph.mem, ph.wall.Seconds(), 1, ph.clientRoundTrip)
	planLayers(l, ph.metrics, w.Model)
	if b == 0 {
		autotuneLayers(l, boot)
		if err := bootLayers(l, c, w.Model, p, tr, true); err != nil {
			return nil, err
		}
	}
	ph.layers = l
	return ph, nil
}

// bootLayers records trserve's boot breakdown, from the timestamps of
// its stdout lines, and the median of 5 POST /v1/reload on the now idle
// server. withSetup adds the load and compile phases as the model's
// set-up layers, for workloads whose set-up is the trserve boot.
func bootLayers(l layers, c *child, model string, p *prepared, tr *tracer, withSetup bool) error {
	load, compile := c.compiling-c.loading, c.serving-c.compiling
	if withSetup {
		l["artifact.load_ms."+model] = load.Seconds() * 1e3
		l["compile.family_ms."+model] = compile.Seconds() * 1e3
		l["artifact.bytes."+model] = float64(p.Bytes)
	}
	l["boot.overhead_ms"] = (c.ready - load - compile).Seconds() * 1e3
	reloads, err := reloadMs(c, 5, tr)
	if err != nil {
		return err
	}
	l["serve.reload_ms"] = median(reloads)
	return nil
}

// trserveLayers boots trserve once over the workload's artifact, for
// the boot and reload layers of a workload that serves in process.
func trserveLayers(l layers, o *options, w workload, p *prepared) error {
	tr := newTracer(true)
	c, err := bootTrserve(o.trserve, p.Artifact, tr)
	if err != nil {
		return err
	}
	err = bootLayers(l, c, w.Model, p, tr, false)
	if serr := c.stop(); err == nil && serr != nil {
		err = fmt.Errorf("trserve exit: %w: %s", serr, strings.TrimSpace(c.stderr.String()))
	}
	if err != nil {
		return err
	}
	return tr.write(filepath.Join(o.dir, "spans-trserve-boot.json"))
}
