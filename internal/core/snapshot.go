package core

import (
	"fmt"
	"sort"

	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

var _ sim.Snapshotter = (*Protocol)(nil)

// SnapshotState implements sim.Snapshotter for the Polystyrene layer. It
// owns three pieces of durable state beyond the per-node Table I records:
// the shared point interner (the layer is its authority — every PointID
// in the snapshot is relative to the table serialized here), the
// incremental holders index including its trim-window counters, and the
// splitter's private random stream (consumed by diameter sampling, so it
// is part of the trajectory). The failure detector travels in this
// section too: it is configuration from the engine's point of view, but
// stateful detectors (fd.Delayed) influence recovery and must resume
// exactly.
//
// Guests and ghosts are serialized as interned PointIDs only; their
// point slices are rebuilt from the restored interner. Node positions are
// serialized as raw coordinates because a reinjected node's position is a
// half-step offset that is deliberately not a data point.
func (p *Protocol) SnapshotState(w *snap.Writer) {
	// Interner table, in ID order.
	in := p.cfg.Interner
	w.Len(in.Len())
	for id := 0; id < in.Len(); id++ {
		writePoint(w, in.PointOf(space.PointID(id)))
	}

	// Splitter stream.
	if p.splitter.Rng != nil {
		w.Bool(true)
		for _, s := range p.splitter.Rng.State() {
			w.U64(s)
		}
	} else {
		w.Bool(false)
	}

	// Per-node state.
	w.Len(len(p.nodes))
	for i, st := range p.nodes {
		if st == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.Len(len(st.guestIDs))
		for _, pid := range st.guestIDs {
			w.U32(uint32(pid))
		}
		writePoint(w, p.pos.At(i))
		w.Bool(st.posDirty)
		origins := make([]sim.NodeID, 0, len(st.ghosts))
		for o := range st.ghosts {
			origins = append(origins, o)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		w.Len(len(origins))
		for _, o := range origins {
			w.Int(int(o))
			gs := st.ghosts[o]
			w.Len(len(gs.ids))
			for _, pid := range gs.ids {
				w.U32(uint32(pid))
			}
		}
		w.Len(len(st.backups))
		for _, b := range st.backups {
			w.Int(int(b.node))
			w.Len(len(b.pushed))
			for _, pid := range b.pushed {
				w.U32(uint32(pid))
			}
		}
	}

	// Holders index with its trim high-water state. floor is config
	// (K+1) and is not serialized.
	w.Len(len(p.holders.lists))
	for _, l := range p.holders.lists {
		w.Len(len(l))
		for _, n := range l {
			w.Int(int(n))
		}
	}
	w.Int(p.holders.steps)
	w.Int(p.holders.hwMark)

	// Stateful detector, if any.
	if ds, ok := p.cfg.Detector.(sim.Snapshotter); ok {
		w.Bool(true)
		var dw snap.Writer
		ds.SnapshotState(&dw)
		w.Section(dw.Bytes())
	} else {
		w.Bool(false)
	}
}

// RestoreState implements sim.Snapshotter. The whole section is parsed
// and validated before anything is touched — point dimensions, every
// PointID against the snapshot's own point table, every NodeID against
// its node count and the table's uniqueness — and only then are the
// detector, the shared interner, the splitter stream, the position arena
// and the node table replaced. The detector restores its own section; the
// detectors of package fd refuse a bad one (trailing bytes included)
// before they change anything. With such a detector a refused snapshot
// leaves the protocol, and the interner other layers share, exactly as it
// was; a detector that changes itself and then fails breaks that promise
// for its own state only.
func (p *Protocol) RestoreState(r *snap.Reader) error {
	dim := p.cfg.Space.Dim()

	// Interner table, rebuilt on a scratch interner in the snapshot's ID
	// order so every PointID that follows resolves against it.
	nPts := r.Len(8)
	pts := make([]space.Point, nPts)
	for i := range pts {
		pts[i] = readPoint(r)
	}
	if err := r.Err(); err != nil {
		return err
	}
	table := space.NewInterner()
	for i, pt := range pts {
		if len(pt) != dim {
			return fmt.Errorf("core: snapshot point %d has dimension %d, space wants %d", i, len(pt), dim)
		}
		if id := table.Intern(pt); id != space.PointID(i) {
			return fmt.Errorf("core: snapshot interner table has duplicate point at ID %d", i)
		}
	}
	pid := func(what string) (space.PointID, error) {
		id := space.PointID(r.U32())
		if int(id) >= nPts {
			return 0, fmt.Errorf("core: snapshot %s PointID %d out of range", what, id)
		}
		return id, nil
	}

	hasRng := r.Bool()
	var rngState [4]uint64
	if hasRng {
		for i := range rngState {
			rngState[i] = r.U64()
		}
	}

	// Per-node state. Positions decode into one flat coordinate array,
	// copied into the arena at commit.
	nNodes := r.Len(1)
	node := func(what string) (sim.NodeID, error) {
		id := r.Int()
		if id < 0 || id >= nNodes {
			return 0, fmt.Errorf("core: snapshot %s node %d out of range", what, id)
		}
		return sim.NodeID(id), nil
	}
	nodes := make([]*nodeState, nNodes)
	coords := make([]float64, nNodes*dim)
	for i := range nodes {
		if !r.Bool() {
			continue
		}
		st := &nodeState{ghosts: make(map[sim.NodeID]*ghostSet)}
		ng := r.Len(4)
		st.guestIDs = make([]space.PointID, ng)
		st.guests = make([]space.Point, ng)
		for j := 0; j < ng; j++ {
			id, err := pid("guest")
			if err != nil {
				return err
			}
			st.guestIDs[j] = id
			st.guests[j] = pts[id]
		}
		if n := r.Len(8); n != dim {
			if err := r.Err(); err != nil {
				return err
			}
			return fmt.Errorf("core: snapshot position of node %d has dimension %d, space wants %d", i, n, dim)
		}
		c := coords[i*dim : (i+1)*dim]
		for k := range c {
			c[k] = r.F64()
		}
		st.posDirty = r.Bool()
		nGhost := r.Len(2)
		for j := 0; j < nGhost; j++ {
			origin, err := node("ghost origin")
			if err != nil {
				return err
			}
			gn := r.Len(4)
			gs := &ghostSet{
				ids: make([]space.PointID, gn),
				pts: make([]space.Point, gn),
			}
			for k := 0; k < gn; k++ {
				id, err := pid("ghost")
				if err != nil {
					return err
				}
				gs.ids[k] = id
				gs.pts[k] = pts[id]
			}
			st.ghosts[origin] = gs
		}
		nBk := r.Len(2)
		st.backups = make([]backupRef, nBk)
		for j := 0; j < nBk; j++ {
			b, err := node("backup")
			if err != nil {
				return err
			}
			st.backups[j].node = b
			np := r.Len(4)
			st.backups[j].pushed = make([]space.PointID, np)
			for k := 0; k < np; k++ {
				id, err := pid("pushed")
				if err != nil {
					return err
				}
				st.backups[j].pushed[k] = id
			}
		}
		nodes[i] = st
	}

	nLists := r.Len(1)
	if nLists > nPts {
		return fmt.Errorf("core: snapshot holders index has %d lists for %d points", nLists, nPts)
	}
	lists := make([][]sim.NodeID, nLists)
	for i := range lists {
		ln := r.Len(8)
		l := make([]sim.NodeID, ln)
		for j := range l {
			n, err := node("holder")
			if err != nil {
				return err
			}
			l[j] = n
		}
		lists[i] = l
	}
	steps := r.Int()
	hwMark := r.Int()

	hasDet := r.Bool()
	ds, statefulDet := p.cfg.Detector.(sim.Snapshotter)
	if err := r.Err(); err != nil {
		return err
	}
	if hasDet != statefulDet {
		return fmt.Errorf("core: snapshot detector state presence mismatch (snapshot %v, config %T)", hasDet, p.cfg.Detector)
	}
	// The detector restores last, once nothing else can refuse the
	// snapshot and before anything of this layer changes.
	if hasDet {
		sub := r.Section()
		if err := r.Err(); err != nil {
			return err
		}
		if err := ds.RestoreState(sub); err != nil {
			return fmt.Errorf("core: restoring detector: %w", err)
		}
		if err := snap.CloseSection("detector", sub); err != nil {
			return err
		}
	}

	p.cfg.Interner.ReplaceWith(table)
	if hasRng {
		if p.splitter.Rng == nil {
			// The lazy Split in InitNode has not run in this engine (e.g.
			// a restore into a never-populated protocol); any placeholder
			// works, SetState overwrites it entirely.
			p.splitter.Rng = xrand.New(0)
		}
		p.splitter.Rng.SetState(rngState)
	} else {
		p.splitter.Rng = nil
	}
	p.pos.ReplaceTail(0, coords)
	p.nodes = nodes
	p.holders.lists = lists
	p.holders.steps = steps
	p.holders.hwMark = hwMark
	p.snapOn = false
	return nil
}

func writePoint(w *snap.Writer, p space.Point) {
	w.Len(len(p))
	for _, c := range p {
		w.F64(c)
	}
}

func readPoint(r *snap.Reader) space.Point {
	n := r.Len(8)
	p := make(space.Point, n)
	for i := range p {
		p[i] = r.F64()
	}
	return p
}
