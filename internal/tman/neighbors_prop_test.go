package tman

import (
	"slices"
	"sort"
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// neighborsOracle is an independent reimplementation of the neighbour
// query contract — full stable sort of a view copy by (distance, ID) —
// against which the three production forms (legacy Neighbors,
// AppendNeighbors, EachNeighbor) are pinned. It deliberately shares no
// code with selectClosest.
func neighborsOracle(p *Protocol, id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return nil
	}
	view := slices.Clone(p.views[id])
	arena := p.cfg.Positions()
	pos := arena.At(int(id))
	sort.SliceStable(view, func(i, j int) bool {
		di := p.cfg.Space.Distance(arena.At(int(view[i])), pos)
		dj := p.cfg.Space.Distance(arena.At(int(view[j])), pos)
		if di != dj {
			return di < dj
		}
		return view[i] < view[j]
	})
	if k > len(view) {
		k = len(view)
	}
	return view[:k]
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
	buf := make([]sim.NodeID, 0, 128)
	for _, id := range probe {
		for _, k := range []int{0, 1, 3, 5, 100} {
			want := neighborsOracle(n.tman, id, k)

			if got := n.tman.Neighbors(id, k); !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(%d, %d) = %v, oracle %v", phase, id, k, got, want)
			}

			buf = append(buf[:0], 9999)
			buf = n.tman.AppendNeighbors(buf, id, k)
			if buf[0] != 9999 || !slices.Equal(buf[1:], want) {
				t.Fatalf("%s: AppendNeighbors(%d, %d) = %v, oracle %v", phase, id, k, buf, want)
			}

			var visited []sim.NodeID
			n.tman.EachNeighbor(id, k, func(nb sim.NodeID) bool {
				visited = append(visited, nb)
				return true
			})
			if !slices.Equal(visited, want) {
				t.Fatalf("%s: EachNeighbor(%d, %d) visited %v, oracle %v", phase, id, k, visited, want)
			}
			if len(want) > 1 {
				visited = visited[:0]
				n.tman.EachNeighbor(id, k, func(nb sim.NodeID) bool {
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

// TestNeighborQueryFormsUnderChurn is the property test of the PR 3 API
// redesign: through convergence, a catastrophic correlated kill (with one
// round of stale views), recovery, reinjection of fresh nodes and a second
// thinning, the append and visitor forms stay byte-identical to the legacy
// Neighbors form and to the independent sort oracle.
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

		// Reinject fresh nodes on the offset parallel grid.
		for i := 0; i < w*h/4; i++ {
			base := pts[(2*i)%len(pts)]
			n.place(n.engine.NumNodes(), tor.Wrap(space.Point{base[0] + 0.5, base[1] + 0.5}))
			n.engine.AddNode()
		}
		n.engine.RunRounds(5)
		checkNeighborForms(t, n, "reinjected")

		// Thin the survivors again: every third live node crashes.
		for i, id := range slices.Clone(n.engine.LiveIDs()) {
			if i%3 == 0 {
				n.engine.Kill(id)
			}
		}
		n.engine.RunRounds(2)
		checkNeighborForms(t, n, "thinned")
	}
}

// TestScratchTrimAfterCatastrophe pins the pooled-buffer high-water trim:
// after a 95% correlated kill, the selection scratch and the per-node view
// backings sized for the 800-node regime must shrink back towards the
// 40-node working set instead of pinning worst-case capacity forever.
func TestScratchTrimAfterCatastrophe(t *testing.T) {
	w, h := 40, 20
	tor := space.TorusForGrid(w, h, 1)
	pts := space.TorusGrid(w, h, 1)
	n := newTestNet(t, 7, tor, pts, Config{})
	n.engine.RunRounds(10)

	before := n.tman.ws[0].sel.Cap()
	if before < DefaultViewCap {
		t.Fatalf("scratch capacity %d before the kill, expected at least the view cap", before)
	}

	// Kill 95%: keep one node in twenty.
	for _, id := range slices.Clone(n.engine.LiveIDs()) {
		if int(id)%20 != 0 {
			n.engine.Kill(id)
		}
	}
	live := n.engine.NumLive()
	// Run past a full trim window at the surviving scale.
	rounds := scratchTrimInterval/live + 10
	n.engine.RunRounds(rounds)

	if after := n.tman.ws[0].sel.Cap(); after >= before || after > scratchTrimSlack*live {
		t.Fatalf("selection scratch capacity %d after trim (was %d, %d live nodes)",
			after, before, live)
	}
	if c := cap(n.tman.ws[0].candBuf); c > scratchTrimSlack*live {
		t.Fatalf("candidate buffer capacity %d not trimmed for %d live nodes", c, live)
	}
	for _, id := range n.engine.LiveIDs() {
		view := n.tman.views[id]
		floor := len(view)
		if floor < n.tman.cfg.InitDegree {
			floor = n.tman.cfg.InitDegree
		}
		if cap(view) > scratchTrimSlack*floor {
			t.Fatalf("node %d view capacity %d pinned (len %d, floor %d)",
				id, cap(view), len(view), floor)
		}
	}
}
