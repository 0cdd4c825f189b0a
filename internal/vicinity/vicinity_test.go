package vicinity

import (
	"testing"

	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

type testNet struct {
	engine *sim.Engine
	vic    *Protocol
	arena  space.Arena
	space  space.Space
}

func newTestNet(t *testing.T, seed uint64, s space.Space, pts []space.Point, cfg Config) *testNet {
	t.Helper()
	n := &testNet{arena: arenaOf(pts), space: s}
	sampler := rps.New(rps.Config{})
	cfg.Space = s
	cfg.Sampler = sampler
	cfg.Positions = func() space.Arena { return n.arena }
	vic, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.vic = vic
	n.engine = sim.New(seed, sampler, vic)
	n.engine.AddNodes(len(pts))
	return n
}

// place pins node id at p, growing the arena for a node about to join.
func (n *testNet) place(id int, p space.Point) { n.arena.Set(id, p) }

// pos returns node id's position.
func (n *testNet) pos(id sim.NodeID) space.Point { return n.arena.At(int(id)) }

// arenaOf returns a position arena holding pts in slot order.
func arenaOf(pts []space.Point) space.Arena {
	a := space.NewArena(len(pts[0]))
	for i, p := range pts {
		a.Set(i, p)
	}
	return a
}

func (n *testNet) proximity(k int) float64 {
	total, count := 0.0, 0
	for _, id := range n.engine.LiveIDs() {
		for _, nb := range n.vic.Neighbors(id, k) {
			total += n.space.Distance(n.pos(id), n.pos(nb))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestDefaults(t *testing.T) {
	cfg, err := Config{
		Space:     space.NewEuclidean(2),
		Sampler:   rps.New(rps.Config{}),
		Positions: func() space.Arena { return space.NewArena(2) },
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ViewSize != DefaultViewSize || cfg.MsgSize != DefaultMsgSize || cfg.RandomMix != DefaultRandomMix {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestConvergenceOnTorusGrid(t *testing.T) {
	const w, h = 20, 10
	pts := space.TorusGrid(w, h, 1)
	net := newTestNet(t, 1, space.TorusForGrid(w, h, 1), pts, Config{})
	net.engine.RunRounds(25)
	if prox := net.proximity(4); prox > 1.1 {
		t.Fatalf("proximity after 25 rounds = %v, want ~1.0", prox)
	}
}

func TestViewInvariants(t *testing.T) {
	pts := space.TorusGrid(12, 12, 1)
	net := newTestNet(t, 2, space.TorusForGrid(12, 12, 1), pts, Config{ViewSize: 8})
	for i := 0; i < 20; i++ {
		net.engine.RunRounds(1)
		for _, id := range net.engine.LiveIDs() {
			view := net.vic.View(id)
			if len(view) > 8 {
				t.Fatalf("node %d view %d exceeds cap 8", id, len(view))
			}
			seen := map[sim.NodeID]bool{}
			for _, v := range view {
				if v == id {
					t.Fatalf("node %d references itself", id)
				}
				if seen[v] {
					t.Fatalf("node %d has duplicate %d", id, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestHealsAfterChurn(t *testing.T) {
	pts := space.TorusGrid(12, 12, 1)
	net := newTestNet(t, 3, space.TorusForGrid(12, 12, 1), pts, Config{})
	net.engine.RunRounds(15)
	rng := net.engine.Rand()
	for _, idx := range rng.Sample(len(pts), len(pts)/3) {
		net.engine.Kill(sim.NodeID(idx))
	}
	net.engine.RunRounds(15)
	for _, id := range net.engine.LiveIDs() {
		for _, v := range net.vic.View(id) {
			if !net.engine.Alive(v) {
				t.Fatalf("node %d keeps dead neighbour %d", id, v)
			}
		}
		if len(net.vic.Neighbors(id, 2)) == 0 {
			t.Fatalf("node %d isolated after churn", id)
		}
	}
}

func TestDynamicPositionsHonoured(t *testing.T) {
	const w, h = 16, 8
	pts := space.TorusGrid(w, h, 1)
	s := space.TorusForGrid(w, h, 1)
	net := newTestNet(t, 4, s, pts, Config{})
	net.engine.RunRounds(15)
	target := space.Point{12, 4}
	net.place(0, target)
	net.engine.RunRounds(20)
	nbs := net.vic.Neighbors(0, 4)
	if len(nbs) == 0 {
		t.Fatal("no neighbours after moving")
	}
	for _, nb := range nbs {
		if d := s.Distance(target, net.pos(nb)); d > 3 {
			t.Fatalf("neighbour %d at distance %v after the move", nb, d)
		}
	}
}

func TestChargesCost(t *testing.T) {
	pts := space.TorusGrid(10, 10, 1)
	net := newTestNet(t, 5, space.TorusForGrid(10, 10, 1), pts, Config{})
	net.engine.RunRounds(5)
	if cost := net.engine.Meter().TotalCost("vicinity"); cost == 0 {
		t.Fatal("vicinity charged no communication cost")
	}
}

func TestNeighborsEdgeCases(t *testing.T) {
	pts := space.TorusGrid(4, 4, 1)
	net := newTestNet(t, 6, space.TorusForGrid(4, 4, 1), pts, Config{})
	if net.vic.Neighbors(99, 4) != nil || net.vic.Neighbors(0, 0) != nil {
		t.Fatal("edge cases mishandled")
	}
	if net.vic.View(99) != nil || net.vic.ViewSize(99) != 0 {
		t.Fatal("unknown node view mishandled")
	}
}
