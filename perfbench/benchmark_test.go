package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repo root must declare workloads this driver
// runs and exactly the metrics it prints.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// http_mlp runs by hand only; see README.md.
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil || w.Name == "http_mlp" || w.Why == "" {
			t.Errorf("workload %+v: %v", w, err)
		}
	}
	if len(b.EndToEnd) != len(e2eDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(b.EndToEnd), len(e2eDefs))
	}
	for i, m := range b.EndToEnd {
		if d := e2eDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, driver has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the driver %d", len(b.PerLayer), len(layerDefs))
	}
	for i, m := range b.PerLayer {
		if m != layerDefs[i] {
			t.Errorf("per_layer %d: %+v, driver has %+v", i, m, layerDefs[i])
		}
	}
}
