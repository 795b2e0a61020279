package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// series maps a canonical series key (family name, then its labels
// sorted by key) to the value one scrape exposed. The same parser reads
// a child server's /metrics and the in-process registry's exposition,
// so both kinds of workload derive their layer metrics identically.
type series map[string]float64

// seriesKey builds the canonical key of name with label pairs kv.
func seriesKey(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+"="+strconv.Quote(kv[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseProm reads Prometheus text exposition (comments skipped).
func parseProm(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		id := line[:sp]
		name, labels, ok := strings.Cut(id, "{")
		if !ok {
			out[name] = v
			continue
		}
		if !strings.HasSuffix(labels, "}") {
			return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", ln, line)
		}
		kv, err := parseLabels(strings.TrimSuffix(labels, "}"))
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out[seriesKey(name, kv...)] = v
	}
	return out, sc.Err()
}

// parseLabels splits `k="v",k2="v2"` into key/value pairs.
func parseLabels(s string) ([]string, error) {
	var kv []string
	for s != "" {
		k, rest, ok := strings.Cut(s, "=")
		if !ok || rest == "" || rest[0] != '"' {
			return nil, fmt.Errorf("bad labels %q", s)
		}
		end := 1
		for end < len(rest) && rest[end] != '"' {
			if rest[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		v, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, fmt.Errorf("label %s: %w", k, err)
		}
		kv = append(kv, k, v)
		s = strings.TrimPrefix(rest[end+1:], ",")
	}
	return kv, nil
}

func (s series) get(name string, kv ...string) float64 { return s[seriesKey(name, kv...)] }

// byLabel returns every series of family name that carries only the
// given label, keyed by that label's value.
func (s series) byLabel(name, label string) map[string]float64 {
	prefix := name + "{" + label + "="
	out := map[string]float64{}
	for k, v := range s {
		if rest, ok := strings.CutPrefix(k, prefix); ok && !strings.Contains(rest, ",") {
			if lv, err := strconv.Unquote(strings.TrimSuffix(rest, "}")); err == nil {
				out[lv] = v
			}
		}
	}
	return out
}

// sub returns after-minus-before for every series in s.
func (s series) sub(before series) series {
	d := series{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// memCounters are the allocator counters the layer metrics difference.
type memCounters struct {
	TotalAlloc uint64
	Mallocs    uint64
	NumGC      uint32
}

func (m memCounters) sub(before memCounters) memCounters {
	return memCounters{TotalAlloc: m.TotalAlloc - before.TotalAlloc,
		Mallocs: m.Mallocs - before.Mallocs, NumGC: m.NumGC - before.NumGC}
}

// parseExpvarMem reads the memstats block of an expvar /debug/vars page.
func parseExpvarMem(r io.Reader) (memCounters, error) {
	var v struct {
		Memstats *memCounters `json:"memstats"`
	}
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		return memCounters{}, fmt.Errorf("debug/vars: %w", err)
	}
	if v.Memstats == nil {
		return memCounters{}, fmt.Errorf("debug/vars: no memstats")
	}
	return *v.Memstats, nil
}

// readMem samples this process's allocator counters.
func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{TotalAlloc: ms.TotalAlloc, Mallocs: ms.Mallocs, NumGC: ms.NumGC}
}
