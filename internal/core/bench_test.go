package core

// Micro-benchmarks for the Polystyrene point-set hot paths. The headline
// one, BenchmarkMigrateRound, executes one full layer round (recovery,
// backup, migration, projection for every live node) at the post-failure
// steady state — the regime the ROADMAP's "Beyond 51,200 nodes" item
// targets, where survivors host several guests each. Its "stringkeyed"
// variant replays the same round with the PR-1-era representation
// (string-keyed merge/delta maps, allocating split, unconditional medoid)
// so the interned-ID rework is measured against the baseline it replaced;
// the tracked BENCH_*.json records both.

import (
	"sort"
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// benchStack builds a converged post-catastrophe stack: half the torus
// crashed, recovery and deduplication settled, each survivor hosting ~2
// guest points.
func benchStack(b *testing.B, seed uint64) *stack {
	b.Helper()
	st := newStack(b, stackOpts{seed: seed, w: 32, h: 16, cfg: Config{K: 4}})
	st.engine.RunRounds(10)
	for i, p := range st.points {
		if space.RightHalf(p, float64(st.w)) {
			st.engine.Kill(sim.NodeID(i))
		}
	}
	st.engine.RunRounds(10)
	return st
}

// BenchmarkMigrateRound measures one full Polystyrene round over every
// live node, in the interned-ID representation versus the string-keyed
// baseline it replaced.
func BenchmarkMigrateRound(b *testing.B) {
	b.Run("interned", func(b *testing.B) {
		st := benchStack(b, 42)
		ids := st.engine.LiveIDs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				st.poly.Step(st.engine, id)
			}
		}
	})
	b.Run("stringkeyed", func(b *testing.B) {
		st := benchStack(b, 42)
		ids := st.engine.LiveIDs()
		bl := newStringKeyedBaseline(st.poly, st.tman)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				bl.step(st.engine, id)
			}
		}
	})
}

// --- string-keyed baseline (the pre-interning implementation) ---

// stringKeyedBaseline replays the PR-1 implementation of the Polystyrene
// step against the live protocol state: every point-set operation goes
// through Point.Key() strings and per-call maps, the split allocates its
// partitions, and the medoid projection reruns every round. It drives the
// point slices only (never the lockstep ID state), so a stack stepped
// exclusively through it stays internally consistent for benchmarking.
type stringKeyedBaseline struct {
	p *Protocol
	// topo is the legacy allocating neighbour query (the pre-redesign
	// Topology contract), resolved from the concrete overlay since the
	// interface now only carries the append/visitor forms.
	topo interface {
		Neighbors(id sim.NodeID, k int) []sim.NodeID
	}
	// pushed mirrors the old per-backup pushed-key cache:
	// node → backup target → key set of the last push.
	pushed map[sim.NodeID]map[sim.NodeID]map[string]bool
}

func newStringKeyedBaseline(p *Protocol, topo interface {
	Neighbors(id sim.NodeID, k int) []sim.NodeID
}) *stringKeyedBaseline {
	return &stringKeyedBaseline{
		p: p, topo: topo,
		pushed: make(map[sim.NodeID]map[sim.NodeID]map[string]bool),
	}
}

func (bl *stringKeyedBaseline) step(e *sim.Engine, id sim.NodeID) {
	bl.recover(e, id)
	bl.backup(e, id)
	bl.migrate(e, id)
	bl.project(id)
}

func (bl *stringKeyedBaseline) recover(e *sim.Engine, id sim.NodeID) {
	p, st := bl.p, bl.p.nodes[id]
	var failed []sim.NodeID
	for origin := range st.ghosts {
		if p.cfg.Detector.Failed(e, id, origin) {
			failed = append(failed, origin)
		}
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	for _, origin := range failed {
		st.guests = mergePoints(st.guests, st.ghosts[origin].pts)
		delete(st.ghosts, origin)
	}
}

func (bl *stringKeyedBaseline) backup(e *sim.Engine, id sim.NodeID) {
	p, st := bl.p, bl.p.nodes[id]
	pushed := bl.pushed[id]
	if pushed == nil {
		pushed = make(map[sim.NodeID]map[string]bool)
		bl.pushed[id] = pushed
	}
	kept := st.backups[:0]
	for _, b := range st.backups {
		if !p.cfg.Detector.Failed(e, id, b.node) {
			kept = append(kept, b)
		} else {
			delete(pushed, b.node)
		}
	}
	st.backups = kept
	if missing := p.cfg.K - len(st.backups); missing > 0 {
		bl.pickBackupTargets(e, id, missing)
	}
	if len(st.backups) == 0 {
		return
	}
	ptCost := sim.PointCost(p.cfg.Space.Dim())
	snapshot := clonePoints(st.guests)
	keys := make([]string, len(st.guests))
	now := make(map[string]bool, len(st.guests))
	for i, g := range st.guests {
		keys[i] = g.Key()
		now[keys[i]] = true
	}
	for _, b := range st.backups {
		gs := p.nodes[b.node].ghosts[id]
		if gs == nil {
			gs = &ghostSet{}
			p.nodes[b.node].ghosts[id] = gs
		}
		gs.pts = snapshot
		prev := pushed[b.node]
		delta := 0
		for _, k := range keys {
			if !prev[k] {
				delta++
			}
		}
		for k := range prev {
			if !now[k] {
				delta++
			}
		}
		pushed[b.node] = now
		e.Charge(delta * ptCost)
	}
}

func (bl *stringKeyedBaseline) pickBackupTargets(e *sim.Engine, id sim.NodeID, n int) {
	p, st := bl.p, bl.p.nodes[id]
	exclude := make(map[sim.NodeID]bool, len(st.backups)+1)
	exclude[id] = true
	for _, b := range st.backups {
		exclude[b.node] = true
	}
	candidates := p.cfg.Sampler.RandomPeers(e, id, n+len(st.backups)+1)
	added := 0
	for _, c := range candidates {
		if added == n {
			return
		}
		if !exclude[c] && e.Alive(c) {
			exclude[c] = true
			st.backups = append(st.backups, backupRef{node: c})
			added++
		}
	}
	for tries := 0; added < n && tries < 20*n; tries++ {
		c := e.RandomLive()
		if c != sim.None && !exclude[c] {
			exclude[c] = true
			st.backups = append(st.backups, backupRef{node: c})
			added++
		}
	}
}

func (bl *stringKeyedBaseline) migrate(e *sim.Engine, id sim.NodeID) {
	p := bl.p
	candidates := bl.topo.Neighbors(id, p.cfg.Psi)
	if r := p.cfg.Sampler.RandomPeer(e, id); r != sim.None && r != id {
		dup := false
		for _, c := range candidates {
			if c == r {
				dup = true
				break
			}
		}
		if !dup {
			candidates = append(candidates, r)
		}
	}
	live := candidates[:0]
	for _, c := range candidates {
		if e.Alive(c) {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return
	}
	q := live[e.Rand().Intn(len(live))]

	pst, qst := p.nodes[id], p.nodes[q]
	all := mergePoints(clonePoints(pst.guests), qst.guests)
	toP, toQ := bl.splitAllocating(all, p.pos.At(int(id)), p.pos.At(int(q)))
	ptCost := sim.PointCost(p.cfg.Space.Dim())
	e.Charge((len(qst.guests) + len(toQ)) * ptCost)
	pst.guests = toP
	qst.guests = toQ
	bl.project(q)
}

// splitAllocating is the old SplitAdvanced: fresh partition slices per
// call.
func (bl *stringKeyedBaseline) splitAllocating(points []space.Point, posP, posQ space.Point) (toP, toQ []space.Point) {
	sp := &bl.p.splitter
	s := sp.Space
	u, v, ok := sp.diameter(points)
	if !ok {
		u, v = posP, posQ
	}
	var a, bb []space.Point
	for _, x := range points {
		if s.Distance(x, u) < s.Distance(x, v) {
			a = append(a, x)
		} else {
			bb = append(bb, x)
		}
	}
	ma := space.MedoidPoint(s, a)
	mb := space.MedoidPoint(s, bb)
	dist := func(m, pos space.Point) float64 {
		if m == nil {
			return 0
		}
		return s.Distance(m, pos)
	}
	if dist(ma, posP)+dist(mb, posQ) < dist(mb, posP)+dist(ma, posQ) {
		return a, bb
	}
	return bb, a
}

func (bl *stringKeyedBaseline) project(id sim.NodeID) {
	st := bl.p.nodes[id]
	if len(st.guests) == 0 {
		return
	}
	bl.p.pos.Set(int(id), space.MedoidPoint(bl.p.cfg.Space, st.guests))
}
