package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric names and
// units in step with what the benchmark prints, and its workloads defined
// in workloads.json (which may define more, run by hand).
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := cfg.Workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in workloads.json", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
		}
		for _, m := range listed {
			if p, ok := printed[m.Name]; !ok || p.Unit != m.Unit {
				t.Errorf("%s metric %s (%s): printed as %+v, %v", kind, m.Name, m.Unit, p, ok)
			}
		}
	}
	e2e := map[string]metric{}
	for n, u := range endToEndUnits {
		e2e[n] = metric{Unit: u}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, perLayer(layerInputs{win: newWindow(), upd: newWindow()}))
}
