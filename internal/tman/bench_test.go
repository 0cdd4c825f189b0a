package tman

import (
	"testing"

	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// benchNet assembles RPS + T-Man over a torus grid, the configuration
// whose view selection dominates whole-simulator CPU time.
func benchNet(b *testing.B, w, h int) (*sim.Engine, *Protocol) {
	b.Helper()
	s := space.TorusForGrid(w, h, 1)
	arena := arenaOf(space.TorusGrid(w, h, 1))
	sampler := rps.New(rps.Config{})
	tm, err := New(Config{
		Space:     s,
		Sampler:   sampler,
		Positions: func() space.Arena { return arena },
	})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.New(1, sampler, tm)
	e.AddNodes(w * h)
	return e, tm
}

// BenchmarkGossipRound measures one full T-Man round over 800 nodes:
// partner selection, buffer building and capped merges — the simulator's
// hottest path.
func BenchmarkGossipRound(b *testing.B) {
	e, _ := benchNet(b, 40, 20)
	e.RunRounds(5) // fill views to their steady-state size first
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}

// BenchmarkNeighborsQuery measures the closest-k query consumed by
// partner selection, Polystyrene migration, and the proximity metric, in
// its three forms: the legacy fresh-slice Neighbors (the PR 2 API,
// kept as the baseline), the caller-buffer AppendNeighbors and the
// visitor EachNeighbor. The sweep queries every live node, the shape of
// the per-round metric loop; the two new forms must report 0 allocs/op.
func BenchmarkNeighborsQuery(b *testing.B) {
	bench := func(b *testing.B, query func(tm *Protocol, id sim.NodeID)) {
		b.Helper()
		e, tm := benchNet(b, 40, 20)
		e.RunRounds(10)
		ids := e.LiveIDs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				query(tm, id)
			}
		}
	}
	b.Run("legacy", func(b *testing.B) {
		bench(b, func(tm *Protocol, id sim.NodeID) {
			if len(tm.Neighbors(id, 5)) == 0 {
				b.Fatal("no neighbours")
			}
		})
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]sim.NodeID, 0, 8)
		bench(b, func(tm *Protocol, id sim.NodeID) {
			buf = tm.AppendNeighbors(buf[:0], id, 5)
			if len(buf) == 0 {
				b.Fatal("no neighbours")
			}
		})
	})
	b.Run("each", func(b *testing.B) {
		n := 0
		visit := func(sim.NodeID) bool { n++; return true }
		bench(b, func(tm *Protocol, id sim.NodeID) {
			n = 0
			tm.EachNeighbor(id, 5, visit)
			if n == 0 {
				b.Fatal("no neighbours")
			}
		})
	})
}
