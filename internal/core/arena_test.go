package core_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"polystyrene/internal/core"
	"polystyrene/internal/scenario"
	"polystyrene/internal/serve"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// TestPositionArenaAgreement pins the position arena's aliasing contract
// through calm rounds, a right-half catastrophe, recovery and reinjection,
// on the sequential engine and the batched one. At every round boundary,
// node for node and bit for bit:
//
//   - Position answers are the arena's slots;
//   - a batched pass ranked by a copy of the arena as it stood when the
//     round began;
//   - the epoch the round published serves the arena's positions, and
//     the previous epoch still serves the previous arena's (it copied,
//     not aliased);
//   - a protocol restored from a snapshot taken now holds the same arena.
//
// Run it under -race: the batched rounds project concurrently while their
// rankings read the pass copy.
func TestPositionArenaAgreement(t *testing.T) {
	for _, w := range []int{0, 2} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			cfg := scenario.Config{Seed: 17, W: 16, H: 8, Polystyrene: true, K: 4, SkipMetrics: true, ExchangeParallelism: w}
			sc := scenario.MustNew(cfg)
			defer sc.Close()
			pub := sc.ServePublisher(0)
			var before space.Arena
			prevEp := pub.Current()
			run := func(phase string, rounds int) {
				for i := 0; i < rounds; i++ {
					where := fmt.Sprintf("%s round %d", phase, sc.Engine.Round())
					before.CopyFrom(sc.Poly().Positions())
					sc.Run(1)
					checkArenaBoundary(t, where, cfg, sc, before, pub.Current(), prevEp)
					prevEp = pub.Current()
				}
			}
			run("calm", 5)
			killed := sc.FailRightHalf()
			// The crash publishes nothing: the next round's check still
			// compares the previous epoch with the pre-crash arena.
			run("recovery", 5)
			sc.Reinject(killed)
			run("reinjection", 5)
		})
	}
}

func checkArenaBoundary(t *testing.T, where string, cfg scenario.Config, sc *scenario.Scenario, before space.Arena, ep, prevEp *serve.Epoch) {
	t.Helper()
	p := sc.Poly()
	arena := p.Positions()
	if n := sc.Engine.NumNodes(); arena.Len() != n {
		t.Fatalf("%s: arena has %d slots for %d nodes", where, arena.Len(), n)
	}
	for id := 0; id < arena.Len(); id++ {
		samePoint(t, where+": Position", id, p.Position(sim.NodeID(id)), arena.At(id))
	}
	if cfg.ExchangeParallelism > 0 {
		pass := core.PassPositions(p)
		if pass.Len() != before.Len() {
			t.Fatalf("%s: pass copy has %d slots, arena had %d when the round began", where, pass.Len(), before.Len())
		}
		for id := 0; id < before.Len(); id++ {
			samePoint(t, where+": pass copy", id, pass.At(id), before.At(id))
		}
	}
	for _, id := range sc.Engine.LiveIDs() {
		got, ok := ep.Position(id)
		if !ok {
			t.Fatalf("%s: live node %d missing from the published epoch", where, id)
		}
		samePoint(t, where+": epoch", int(id), got, arena.At(int(id)))
	}
	for i := 0; i < prevEp.NumLive(); i++ {
		id := prevEp.NodeAt(i)
		got, _ := prevEp.Position(id)
		samePoint(t, where+": previous epoch", int(id), got, before.At(int(id)))
	}

	var buf bytes.Buffer
	if err := sc.SnapshotTo(&buf); err != nil {
		t.Fatalf("%s: snapshot: %v", where, err)
	}
	restored := scenario.MustNew(cfg)
	defer restored.Close()
	if err := restored.Restore(&buf); err != nil {
		t.Fatalf("%s: restore: %v", where, err)
	}
	ra := restored.Poly().Positions()
	if ra.Len() != arena.Len() {
		t.Fatalf("%s: restored arena has %d slots, want %d", where, ra.Len(), arena.Len())
	}
	for id := 0; id < arena.Len(); id++ {
		samePoint(t, where+": restored", id, ra.At(id), arena.At(id))
	}
}

func samePoint(t *testing.T, what string, id int, got, want space.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: node %d at %v, want %v", what, id, got, want)
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: node %d at %v, want %v", what, id, got, want)
		}
	}
}
