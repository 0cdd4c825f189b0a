package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"polystyrene/internal/fd"
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
)

// TestRestoreStateRefusesBeforeMutating feeds RestoreState layer sections
// that decode cleanly but are invalid, and checks that each is refused
// with the protocol — and the interner it shares with the harness —
// exactly as it was: same table, same positions, same splitter stream.
func TestRestoreStateRefusesBeforeMutating(t *testing.T) {
	st := newStack(t, stackOpts{seed: 5})
	st.engine.RunRounds(3)
	p := st.poly

	// section writes a point table, no splitter stream and one node whose
	// record node writes; the restore must stop inside that record.
	section := func(table []space.Point, node func(w *snap.Writer)) []byte {
		var w snap.Writer
		w.Len(len(table))
		for _, pt := range table {
			writePoint(&w, pt)
		}
		w.Bool(false)
		w.Len(1)
		w.Bool(true)
		node(&w)
		return w.Bytes()
	}
	table := []space.Point{{1, 2}, {3, 4}}
	cases := []struct {
		name, want string
		body       []byte
	}{
		{"guest PointID out of range", "guest PointID 99 out of range", section(table, func(w *snap.Writer) {
			w.Len(1)
			w.U32(99)
		})},
		{"position of the wrong dimension", "dimension 3, space wants 2", section(table, func(w *snap.Writer) {
			w.Len(1)
			w.U32(1)
			writePoint(w, space.Point{1, 2, 3})
		})},
		{"ghost origin out of range", "ghost origin node 7 out of range", section(table, func(w *snap.Writer) {
			w.Len(0)
			writePoint(w, space.Point{1, 2})
			w.Bool(false)
			w.Len(1)
			w.Int(7)
		})},
		{"duplicate table point", "duplicate point at ID 1", section([]space.Point{{1, 2}, {1, 2}}, func(*snap.Writer) {})},
	}

	// A detector section that is valid but for a trailing byte, behind an
	// otherwise untouched snapshot of this protocol: the detector must
	// refuse it before it changes, and the protocol stay as it was.
	det := fd.NewDelayed(2)
	p.cfg.Detector = det
	st.engine.Kill(3)
	st.engine.RunRounds(1)
	p.cfg.Detector = fd.Perfect{}
	var prefix snap.Writer
	p.SnapshotState(&prefix)
	p.cfg.Detector = det
	var detBefore snap.Writer
	det.SnapshotState(&detBefore)
	if len(detBefore.Bytes()) <= 8 {
		t.Fatal("the delayed detector recorded no death to restore over")
	}
	var bad, tail snap.Writer
	bad.Len(1)
	bad.Int(5)
	bad.Int(0)
	tail.Bool(true)
	tail.Section(append(bad.Bytes(), 0))
	body := prefix.Bytes()
	body = append(body[:len(body)-1:len(body)-1], tail.Bytes()...) // replace the "no detector" flag
	cases = append(cases, struct {
		name, want string
		body       []byte
	}{"detector section with a trailing byte", "trailing bytes", body})

	in := p.Interner()
	wantTable := make([]space.Point, in.Len())
	for i := range wantTable {
		wantTable[i] = in.PointOf(space.PointID(i))
	}
	var wantPos space.Arena
	wantPos.CopyFrom(p.Positions())
	wantRng := p.splitter.Rng.State()
	for _, c := range cases {
		err := p.RestoreState(snap.NewReader(c.body))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: RestoreState error %v, want one containing %q", c.name, err, c.want)
		}
		var detAfter snap.Writer
		det.SnapshotState(&detAfter)
		if !bytes.Equal(detAfter.Bytes(), detBefore.Bytes()) {
			t.Fatalf("%s: detector changed by the refused restore", c.name)
		}
		if in.Len() != len(wantTable) {
			t.Fatalf("%s: interner holds %d points after the refused restore, want %d", c.name, in.Len(), len(wantTable))
		}
		for i, pt := range wantTable {
			if got := in.PointOf(space.PointID(i)); !got.Equal(pt) {
				t.Fatalf("%s: interner point %d is %v after the refused restore, want %v", c.name, i, got, pt)
			}
		}
		for id := 0; id < st.engine.NumNodes(); id++ {
			got, want := p.Position(sim.NodeID(id)), wantPos.At(id)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s: node %d at %v after the refused restore, want %v", c.name, id, got, want)
				}
			}
		}
		if p.splitter.Rng.State() != wantRng {
			t.Fatalf("%s: splitter stream moved by the refused restore", c.name)
		}
	}
	// The protocol still runs.
	st.engine.RunRounds(1)
}
