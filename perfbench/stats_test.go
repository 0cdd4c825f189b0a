package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileSampleCountRule(t *testing.T) {
	l := latencies{ok: seq(1000)}
	if v, err := l.percentile(0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond", v, err)
	}
	if v, err := l.percentile(0.5); err != nil || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", v, err)
	}
	short := latencies{ok: seq(999)}
	if _, err := short.percentile(0.99); err == nil || !strings.Contains(err.Error(), "samples beyond") {
		t.Fatalf("p99 of 999 samples: err = %v, want a sample-count refusal", err)
	}
}

func TestPercentileCountsFailuresAsMissing(t *testing.T) {
	// 995 answers and 5 failures: failures rank above every answer, so
	// p99 is the 990th answer.
	l := latencies{ok: seq(995), missing: 5}
	if v, err := l.percentile(0.99); err != nil || v != 990 {
		t.Fatalf("p99 with 5 missing = %v, %v; want 990", v, err)
	}
	// 980 answers and 20 failures: the p99 rank lands on a failure.
	l = latencies{ok: seq(980), missing: 20}
	if _, err := l.percentile(0.99); err == nil || !strings.Contains(err.Error(), "failed query") {
		t.Fatalf("p99 with 20 missing: err = %v, want refusal", err)
	}
	if l.count() != 1000 {
		t.Fatalf("count = %d, want 1000 attempts", l.count())
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 50, Parent: 0},  // overlaps the first
		{Name: "child", Start: 90, End: 120, Parent: 0}, // runs past the parent
	}}
	self := tr.selfTimes()
	if got := self["parent"]; got != time.Duration(100-40-10) {
		t.Fatalf("parent self = %d, want 50", got)
	}
	if got := self["child"]; got != time.Duration(20+30+30) {
		t.Fatalf("child self = %d, want 80", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", -1); id != -1 || tr.end(id) != 0 {
		t.Fatal("nil tracer recorded a span")
	}
}
