package polystyrene

import (
	"bytes"
	"strings"
	"testing"
)

// systemFingerprint captures everything a facade user can observe.
func systemFingerprint(s *System) map[string]float64 {
	fp := map[string]float64{
		"round":       float64(s.Round()),
		"live":        float64(s.NumLive()),
		"homogeneity": s.Homogeneity(),
		"proximity":   s.Proximity(),
		"reliability": s.Reliability(),
		"datapoints":  s.DataPointsPerNode(),
		"msgcost":     s.LastRoundMessageCost(),
	}
	for _, id := range s.Live() {
		p := s.NodePosition(id)
		fp["x"] += p[0] * float64(id+1)
		fp["y"] += p[1] * float64(id+1)
	}
	return fp
}

func TestSystemSnapshotResumeByteIdentical(t *testing.T) {
	run := func(exPar int, checkpoint bool) map[string]float64 {
		cfg := SystemConfig{
			Seed:                42,
			Space:               Torus(20, 10),
			Shape:               TorusShape(20, 10, 1),
			ReplicationFactor:   4,
			DetectionDelay:      2,
			ExchangeParallelism: exPar,
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.Run(10)
		sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
		sys.Run(3)

		if checkpoint {
			var buf bytes.Buffer
			if err := sys.Snapshot(&buf); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			restored, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			sys = restored
		}
		sys.Run(8)
		return systemFingerprint(sys)
	}

	for _, exPar := range []int{0, 2} {
		want := run(exPar, false)
		got := run(exPar, true)
		for k, w := range want {
			if got[k] != w {
				t.Errorf("exPar=%d: %s diverged after snapshot/restore: %v != %v", exPar, k, got[k], w)
			}
		}
	}
}

func TestSystemRestoreRejectsMismatch(t *testing.T) {
	sys := torusSystem(t, 7, false)
	sys.Run(5)
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	other, err := NewSystem(SystemConfig{
		Seed:              7,
		Space:             Torus(20, 10),
		Shape:             TorusShape(20, 10, 1),
		ReplicationFactor: 6, // differs
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into a differently configured system accepted")
	}

	// Late-joined nodes' pinned spots are slotted after the shape: another
	// shape size must fail on the digest, not on those slots.
	joined := torusSystem(t, 7, false)
	joined.Run(2)
	if _, err := joined.AddNodes([][]float64{{0.5, 0.5}, {3.5, 2.5}}); err != nil {
		t.Fatal(err)
	}
	joined.Run(1)
	var jbuf bytes.Buffer
	if err := joined.Snapshot(&jbuf); err != nil {
		t.Fatal(err)
	}
	smaller, err := NewSystem(SystemConfig{
		Seed:              7,
		Space:             Torus(20, 10),
		Shape:             TorusShape(10, 10, 1),
		ReplicationFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = smaller.Restore(bytes.NewReader(jbuf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("shape-size mismatch accepted or unclear error: %v", err)
	}

	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/2] ^= 1
	same := torusSystem(t, 8, false)
	if err := same.Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
	if err := same.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	if same.Round() != sys.Round() || same.NumLive() != sys.NumLive() {
		t.Fatal("restored system shape diverged")
	}
}

// TestSystemDoubleClose: the graceful-shutdown path closes once on the
// signal handler and once in a defer — both must be safe, and the
// system must stay readable in between.
func TestSystemDoubleClose(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Seed:                9,
		Space:               Torus(20, 10),
		Shape:               TorusShape(20, 10, 1),
		ReplicationFactor:   4,
		ExchangeParallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(3)
	sys.Close()
	sys.Close()
	if sys.NumLive() == 0 {
		t.Fatal("system unreadable after double Close")
	}
}
