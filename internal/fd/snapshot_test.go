package fd

import (
	"bytes"
	"strings"
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/xrand"
)

// TestRestoreStateRefusesBeforeAssigning feeds each stateful detector
// sections that are malformed only in their framing or their NodeIDs,
// and checks that every one is refused with the detector's state — its
// own snapshot — exactly as it was.
func TestRestoreStateRefusesBeforeAssigning(t *testing.T) {
	e := newEngine(3)
	e.Kill(1)
	e.Kill(2)
	delayed := NewDelayed(2)
	prob := NewProbabilistic(0.5, xrand.New(3))
	for i := 0; i < 20; i++ {
		delayed.Failed(e, 0, 1)
		prob.Failed(e, 0, 1)
		prob.Failed(e, 2, 1)
	}

	trailing := func(body []byte) []byte { return append(body, 0) }
	cases := []struct {
		name, want string
		det        sim.Snapshotter
		body       func() []byte
	}{
		{"delayed, trailing byte", "trailing bytes", delayed, func() []byte {
			var w snap.Writer
			w.Len(1)
			w.Int(2)
			w.Int(7)
			return trailing(w.Bytes())
		}},
		{"delayed, negative node", "node -4", delayed, func() []byte {
			var w snap.Writer
			w.Len(1)
			w.Int(-4)
			w.Int(7)
			return w.Bytes()
		}},
		{"probabilistic, trailing byte", "trailing bytes", prob, func() []byte {
			var w snap.Writer
			for i := 0; i < 4; i++ {
				w.U64(uint64(i + 1))
			}
			w.Len(1)
			w.Int(0)
			w.Int(2)
			return trailing(w.Bytes())
		}},
		{"probabilistic, negative observer", "by node -1", prob, func() []byte {
			var w snap.Writer
			for i := 0; i < 4; i++ {
				w.U64(uint64(i + 1))
			}
			w.Len(1)
			w.Int(-1)
			w.Int(2)
			return w.Bytes()
		}},
	}
	for _, c := range cases {
		var before snap.Writer
		c.det.SnapshotState(&before)
		err := c.det.RestoreState(snap.NewReader(c.body()))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: RestoreState error %v, want one containing %q", c.name, err, c.want)
		}
		var after snap.Writer
		c.det.SnapshotState(&after)
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("%s: refused restore changed the detector", c.name)
		}
	}
}
