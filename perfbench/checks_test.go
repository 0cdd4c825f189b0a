package main

import (
	"bytes"
	"net/http"
	"testing"

	"polystyrene/internal/experiments"
	"polystyrene/internal/scenario"
	"polystyrene/internal/sim"
)

func smallScenario(t *testing.T) (scenario.Config, *scenario.Scenario) {
	t.Helper()
	cfg := scenario.Config{Seed: 7, W: 20, H: 10, Polystyrene: true, K: 4, ExchangeParallelism: 2}
	sc, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	sc.Run(3)
	sc.FailRightHalf()
	sc.Run(2)
	return cfg, sc
}

func TestResumeIdentityCheck(t *testing.T) {
	cfg, sc := smallScenario(t)
	var ckpt bytes.Buffer
	if err := sc.SnapshotTo(&ckpt); err != nil {
		t.Fatal(err)
	}
	want, err := oneMoreRound(sc)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := restoreScenario(cfg, ckpt.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumeIdentical(want, restored); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}

	corrupt := append([]byte(nil), ckpt.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40
	if sc2, err := restoreScenario(cfg, corrupt); err == nil {
		sc2.Close()
		t.Fatal("corrupted checkpoint restored without error")
	}

	// A checkpoint of another state restores cleanly but must fail the
	// identity check.
	stale, err := oneMoreRound(sc)
	if err != nil {
		t.Fatal(err)
	}
	restored, err = restoreScenario(cfg, stale)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := resumeIdentical(want, restored); err == nil {
		t.Fatal("restore from a different state passed the identity check")
	}
}

func TestGridAuditCheck(t *testing.T) {
	cell := func(w int, fp uint64) experiments.CellResult {
		return experiments.CellResult{
			Cell: experiments.Cell{Scenario: experiments.ScenarioSpec{Name: "paper", Label: "paper"},
				W: 40, H: 20, K: 4, Detector: "perfect", Exchange: w},
			Fingerprint: fp,
		}
	}
	good := []experiments.CellResult{cell(0, 1), cell(1, 2), cell(2, 2)}
	if err := checkGridAudit(good, 1); err != nil {
		t.Fatalf("agreeing cells: %v", err)
	}
	divergent := []experiments.CellResult{cell(0, 1), cell(1, 2), cell(2, 3)}
	if err := checkGridAudit(divergent, 1); err == nil {
		t.Fatal("divergent w=1/w=2 fingerprints passed the audit")
	}
	if err := checkGridAudit(good[:2], 1); err == nil {
		t.Fatal("a grid with no identity group passed the audit")
	}
}

func TestAnswerChecks(t *testing.T) {
	c := newConn("http://unused", 20)
	ok := []byte(`{"epoch":5,"round":3,"found":true,"node":7,"distance":0.5,"hops":2}`)
	if _, err := c.checkAnswer("lookup", http.StatusOK, ok, sim.None); err != nil {
		t.Fatalf("well-formed lookup: %v", err)
	}
	for name, tc := range map[string]struct {
		kind   string
		status int
		body   string
		id     sim.NodeID
	}{
		"5xx":            {"lookup", http.StatusInternalServerError, `{"error":"boom"}`, sim.None},
		"503 draining":   {"lookup", http.StatusServiceUnavailable, `{"error":"no epoch","state":"draining"}`, sim.None},
		"malformed":      {"lookup", http.StatusOK, `{"epoch":5,`, sim.None},
		"not found":      {"lookup", http.StatusOK, `{"epoch":5,"round":3,"found":false,"node":-1,"distance":0,"hops":0}`, sim.None},
		"no stamp":       {"lookup", http.StatusOK, `{"found":true,"node":7,"distance":0.5,"hops":2}`, sim.None},
		"epoch back":     {"lookup", http.StatusOK, `{"epoch":4,"round":2,"found":true,"node":7,"distance":0.5,"hops":2}`, sim.None},
		"wrong id":       {"neighbors", http.StatusOK, `{"epoch":6,"round":4,"id":8,"neighbors":[1,2]}`, 7},
		"empty list":     {"neighbors", http.StatusOK, `{"epoch":6,"round":4,"id":7,"neighbors":[]}`, 7},
		"self neighbour": {"neighbors", http.StatusOK, `{"epoch":6,"round":4,"id":7,"neighbors":[7,2]}`, 7},
		"404":            {"neighbors", http.StatusNotFound, `{"error":"node dead or unknown in this epoch"}`, 7},
	} {
		if _, err := c.checkAnswer(tc.kind, tc.status, []byte(tc.body), tc.id); err == nil {
			t.Errorf("%s: answer accepted", name)
		}
	}
	nb := []byte(`{"epoch":6,"round":4,"id":7,"neighbors":[1,2,3,4]}`)
	if _, err := c.checkAnswer("neighbors", http.StatusOK, nb, 7); err != nil {
		t.Fatalf("well-formed neighbors: %v", err)
	}
}

func TestGCPauses(t *testing.T) {
	log := "gc 1 @0.010s 2%: 0.018+1.2+0.003 ms clock, 0.03+0.1/0.5/0+0.006 ms cpu, 4->4->0 MB, 4 MB goal, 2 P\n" +
		"gc 2 @1.500s 1%: 0.5+3.0+0.25 ms clock, 1+0/0/0+0.5 ms cpu, 4->4->1 MB, 5 MB goal, 2 P\n" +
		"# serving torus\n" +
		"gc 3 @9.000s 1%: 1+1+1 ms clock, 1+0/0/0+0.5 ms cpu, 4->4->1 MB, 5 MB goal, 2 P\n"
	n, pauses := gcPauses(log, 1e9, 5e9)
	if n != 1 || len(pauses) != 1 || pauses[0] != 0.75 {
		t.Fatalf("gcPauses = %d %v, want one pause of 0.75 ms", n, pauses)
	}
}
