package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestManifestMatchesReports holds BENCHMARK.json to what the runs
// report: the same workloads, and the same metric names and units.
func TestManifestMatchesReports(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var run []string
	for n := range workloads {
		run = append(run, n)
	}
	sort.Strings(names)
	sort.Strings(run)
	if len(names) != len(run) {
		t.Fatalf("manifest workloads %v, benchmark runs %v", names, run)
	}
	for i := range names {
		if names[i] != run[i] {
			t.Fatalf("manifest workloads %v, benchmark runs %v", names, run)
		}
	}
	same := func(kind string, got []entry, want []metricName) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, runs report %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: manifest %s [%s], runs report %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

func TestKeepOnlyRequiresEveryMetric(t *testing.T) {
	want := []metricName{{"a", "s"}, {"b", "ms"}}
	r := newResult()
	r.set("a", "s", 1)
	r.set("extra", "s", 2)
	if err := r.keepOnly(want); err == nil {
		t.Fatal("a result missing metric b passed")
	}
	r = newResult()
	r.set("a", "s", 1)
	r.set("b", "s", 2)
	if err := r.keepOnly(want); err == nil {
		t.Fatal("a metric in the wrong unit passed")
	}
	r = newResult()
	r.set("a", "s", 1)
	r.set("b", "ms", 2)
	r.set("extra", "s", 3)
	if err := r.keepOnly(want); err != nil || len(r.metrics) != 2 {
		t.Fatalf("keepOnly = %v, %d metrics; want nil, 2", err, len(r.metrics))
	}
}
