package vicinity

import (
	"testing"

	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// BenchmarkGossipRound measures one full Vicinity round over 800 nodes:
// oldest-first exchange, full-view swaps and closest-k truncation.
func BenchmarkGossipRound(b *testing.B) {
	s := space.TorusForGrid(40, 20, 1)
	arena := arenaOf(space.TorusGrid(40, 20, 1))
	sampler := rps.New(rps.Config{})
	vic, err := New(Config{
		Space:     s,
		Sampler:   sampler,
		Positions: func() space.Arena { return arena },
	})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.New(1, sampler, vic)
	e.AddNodes(800)
	e.RunRounds(5) // fill views to their steady-state size first
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRounds(1)
	}
}
