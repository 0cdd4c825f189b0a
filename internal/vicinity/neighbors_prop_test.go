package vicinity

import (
	"slices"
	"sort"
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// neighborsOracle is an independent reimplementation of the neighbour
// query contract — full stable sort of a view copy by distance, ties
// keeping the earlier view slot — against which the three production
// forms are pinned. It deliberately shares no code with selectView.
func neighborsOracle(p *Protocol, id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return nil
	}
	view := slices.Clone(p.views[id])
	arena := p.cfg.Positions()
	pos := arena.At(int(id))
	sort.SliceStable(view, func(i, j int) bool {
		return p.cfg.Space.Distance(arena.At(int(view[i].id)), pos) <
			p.cfg.Space.Distance(arena.At(int(view[j].id)), pos)
	})
	if k > len(view) {
		k = len(view)
	}
	out := make([]sim.NodeID, k)
	for i, en := range view[:k] {
		out[i] = en.id
	}
	return out
}

// checkNeighborForms asserts that for every node — live or dead (dead
// nodes answer from their stale view), plus out-of-range and negative
// IDs — and a spread of k values, all three query forms agree exactly
// with the oracle.
func checkNeighborForms(t *testing.T, n *testNet, phase string) {
	t.Helper()
	probe := make([]sim.NodeID, 0, n.engine.NumNodes()+1)
	for id := 0; id < n.engine.NumNodes(); id++ {
		probe = append(probe, sim.NodeID(id))
	}
	probe = append(probe, sim.NodeID(n.engine.NumNodes()+5), sim.None)
	buf := make([]sim.NodeID, 0, 64)
	for _, id := range probe {
		for _, k := range []int{0, 1, 2, 5, 100} {
			want := neighborsOracle(n.vic, id, k)

			if got := n.vic.Neighbors(id, k); !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(%d, %d) = %v, oracle %v", phase, id, k, got, want)
			}

			buf = append(buf[:0], 9999)
			buf = n.vic.AppendNeighbors(buf, id, k)
			if buf[0] != 9999 || !slices.Equal(buf[1:], want) {
				t.Fatalf("%s: AppendNeighbors(%d, %d) = %v, oracle %v", phase, id, k, buf, want)
			}

			var visited []sim.NodeID
			n.vic.EachNeighbor(id, k, func(nb sim.NodeID) bool {
				visited = append(visited, nb)
				return true
			})
			if !slices.Equal(visited, want) {
				t.Fatalf("%s: EachNeighbor(%d, %d) visited %v, oracle %v", phase, id, k, visited, want)
			}
			if len(want) > 1 {
				visited = visited[:0]
				n.vic.EachNeighbor(id, k, func(nb sim.NodeID) bool {
					visited = append(visited, nb)
					return len(visited) < 2
				})
				if !slices.Equal(visited, want[:2]) {
					t.Fatalf("%s: early-stopped EachNeighbor(%d, %d) = %v, want %v",
						phase, id, k, visited, want[:2])
				}
			}
		}
	}
}

// TestNeighborQueryFormsUnderChurn mirrors the T-Man property test for
// the Vicinity provider: through convergence, a catastrophic correlated
// kill (with one round of stale views), recovery, reinjection and a
// second thinning, the append and visitor forms stay byte-identical to
// the legacy Neighbors form and to the independent sort oracle.
func TestNeighborQueryFormsUnderChurn(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		w, h := 12, 6
		tor := space.TorusForGrid(w, h, 1)
		pts := space.TorusGrid(w, h, 1)
		n := newTestNet(t, seed, tor, pts, Config{})

		n.engine.RunRounds(8)
		checkNeighborForms(t, n, "converged")

		for i, p := range pts {
			if space.RightHalf(p, float64(w)) {
				n.engine.Kill(sim.NodeID(i))
			}
		}
		n.engine.RunRounds(1)
		checkNeighborForms(t, n, "post-catastrophe")

		n.engine.RunRounds(6)
		checkNeighborForms(t, n, "recovered")

		for i := 0; i < w*h/4; i++ {
			base := pts[(2*i)%len(pts)]
			n.place(n.engine.NumNodes(), tor.Wrap(space.Point{base[0] + 0.5, base[1] + 0.5}))
			n.engine.AddNode()
		}
		n.engine.RunRounds(5)
		checkNeighborForms(t, n, "reinjected")

		for i, id := range slices.Clone(n.engine.LiveIDs()) {
			if i%3 == 0 {
				n.engine.Kill(id)
			}
		}
		n.engine.RunRounds(2)
		checkNeighborForms(t, n, "thinned")
	}
}
