package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

func sampleServeReport() *report.ServeReport {
	return &report.ServeReport{
		Platform: report.NewPlatform("abc1234"),
		Config: report.ServeConfig{Model: "mlp", MaxBatch: 8, MaxDelayUs: 2000,
			QueueCap: 64, BatchWorkers: 1, Workers: 8, WorkersSweep: []int{1, 2, 4, 8},
			Clients: 32, DurationMs: 2000, DeadlineMs: 200, Budgets: []int{4, 8, 12},
			DegradeWatermark: 64},
		Results: report.ServeResults{Requests: 100, OK: 100},
	}
}

// TestCheckServeOverwrite pins the clobber rule on the serving report
// path, ported from trbench: a missing file is fine, a same-config
// refresh is fine, a differing config refuses with a -force hint, an
// unparsable file refuses, and force overrides everything.
func TestCheckServeOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_serve.json")
	rep := sampleServeReport()

	if err := checkServeOverwrite(path, rep, false); err != nil {
		t.Fatalf("missing file refused: %v", err)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkServeOverwrite(path, rep, false); err != nil {
		t.Fatalf("same-config refresh refused: %v", err)
	}

	// A new git revision on the same platform is still a refresh.
	bumped := sampleServeReport()
	bumped.GitRev = "def5678"
	if err := checkServeOverwrite(path, bumped, false); err != nil {
		t.Fatalf("same-config new-revision refresh refused: %v", err)
	}

	changed := sampleServeReport()
	changed.Config.WorkersSweep = []int{1, 4}
	err = checkServeOverwrite(path, changed, false)
	if err == nil {
		t.Fatal("differing sweep accepted without -force")
	}
	if !strings.Contains(err.Error(), "-force") {
		t.Errorf("refusal %q does not mention -force", err)
	}
	if err := checkServeOverwrite(path, changed, true); err != nil {
		t.Errorf("-force still refused: %v", err)
	}

	changed = sampleServeReport()
	changed.Config.Budgets = nil
	if err := checkServeOverwrite(path, changed, false); err == nil {
		t.Error("differing budget ladder accepted without -force")
	}

	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkServeOverwrite(path, rep, false); err == nil {
		t.Error("unparsable results file accepted without -force")
	}
	if err := checkServeOverwrite(path, rep, true); err != nil {
		t.Errorf("-force refused on an unparsable file: %v", err)
	}
}

// TestParseSweep covers the -sweep (and -budgets) flag grammar:
// sorted, deduplicated, positive integers only.
func TestParseSweep(t *testing.T) {
	got, err := parseInts("-sweep", "8, 1,4,2,4", "1,2,4,8")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("parseInts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseInts = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "0", "-1", "1,x"} {
		if _, err := parseInts("-sweep", bad, "1,2,4,8"); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}
