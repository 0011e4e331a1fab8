package main

import (
	"encoding/json"
	"os"
	"testing"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// BENCHMARK.json must list exactly the workloads and metrics this
// program reports, with the same units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q, want %q with a reason", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metric, bound bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bound && g.Bound != w.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)
}
