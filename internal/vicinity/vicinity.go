// Package vicinity implements the Vicinity topology-construction protocol
// (Voulgaris & van Steen, "Epidemic-style management of semantic overlays
// for content-based searching", Euro-Par 2005) — the second of the
// protocols the paper names as hosts for the Polystyrene layer ("T-Man,
// Vicinity, Gossple", Fig. 3).
//
// Vicinity differs from T-Man in how it gossips:
//
//   - the exchange partner is the *oldest* entry of the view (as in
//     Cyclon), not a random pick among the ψ closest — ageing guarantees
//     every link is eventually refreshed and stale links die;
//   - each side sends its whole view (plus itself, capped at the message
//     budget), not a buffer tailored to the receiver;
//   - the view is a small fixed-size set of the closest known peers, and
//     fresh randomness flows in from the peer-sampling layer every round.
//
// Like T-Man here, node positions are read from a position arena through
// the Config.Positions handle, so Polystyrene's projection can move nodes
// around the shape. The package satisfies core.Topology and charges the
// engine's meter with the same unit cost model (descriptor = ID +
// position).
//
// An exchange's conflict set is {initiator, oldest view entry}: Step
// reads and writes only those two views, which is what lets the engine's
// batch scheduler (sim.Batched) run disjoint exchanges concurrently.
// Per-exchange buffers and distance-selection scratch are pooled per
// worker slot (slot 0 under the sequential engine), and the matcher plans
// on a dedicated mirror scratch.
package vicinity

import (
	"fmt"

	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/topk"
	"polystyrene/internal/xrand"
)

// Defaults follow the Vicinity paper's small-view spirit; the view is
// deliberately smaller than T-Man's cap because every entry is shipped on
// every exchange.
const (
	// DefaultViewSize is the number of closest peers a node keeps.
	DefaultViewSize = 16
	// DefaultMsgSize caps the descriptors per exchanged message.
	DefaultMsgSize = 16
	// DefaultRandomMix is how many random peers from the sampling layer
	// are folded into each selection round.
	DefaultRandomMix = 2
)

// Config parameterises the protocol. Space, Sampler and Positions are
// required.
type Config struct {
	// Space is the metric space positions live in.
	Space space.Space
	// Sampler is the peer-sampling layer below.
	Sampler *rps.Protocol
	// Positions returns the position arena to rank by: slot id holds node
	// id's current virtual position, for every node the engine has. It is
	// called once per selection, never while positions change, and the
	// points read from it are valid until the node's next projection.
	Positions func() space.Arena
	// ViewSize bounds the view.
	ViewSize int
	// MsgSize caps descriptors per message.
	MsgSize int
	// RandomMix is the number of random peers blended in per round.
	RandomMix int
}

func (c Config) withDefaults() (Config, error) {
	if c.Space == nil {
		return c, fmt.Errorf("vicinity: Config.Space is required")
	}
	if c.Sampler == nil {
		return c, fmt.Errorf("vicinity: Config.Sampler is required")
	}
	if c.Positions == nil {
		return c, fmt.Errorf("vicinity: Config.Positions is required")
	}
	if c.ViewSize <= 0 {
		c.ViewSize = DefaultViewSize
	}
	if c.MsgSize <= 0 {
		c.MsgSize = DefaultMsgSize
	}
	if c.RandomMix <= 0 {
		c.RandomMix = DefaultRandomMix
	}
	return c, nil
}

// entry is a view slot: a peer and the age of the link.
type entry struct {
	id  sim.NodeID
	age int
}

// scratch is one worker slot's pooled exchange state.
type scratch struct {
	// sel holds the pooled parallel (distance, view index) selection
	// arrays; ids stages the ranked entries' NodeIDs for the arena
	// kernel.
	sel topk.Scratch[int]
	ids []sim.NodeID
	// bufA/bufB are the two in-flight message buffers; both live across a
	// merge pair, so they need separate backing arrays.
	bufA []sim.NodeID
	bufB []sim.NodeID
	// keepBuf is the pooled staging buffer for capped merge selections.
	keepBuf []entry
	// peerBuf stages random-peer draws (blend-in and view re-seeding).
	peerBuf []sim.NodeID
}

// Protocol is the Vicinity layer. It implements sim.Protocol, sim.Batched
// and core.Topology.
type Protocol struct {
	cfg   Config
	views [][]entry

	// ws holds one scratch per worker slot (slot 0 is the sequential
	// engine's and the external query path's); plan backs the matcher's
	// read-only selection mirrors.
	ws   []*scratch
	plan struct {
		sel   topk.Scratch[int]
		ids   []sim.NodeID
		view  []entry
		peers []sim.NodeID
	}
}

var _ sim.Protocol = (*Protocol)(nil)
var _ sim.Batched = (*Protocol)(nil)

// New returns a Vicinity layer with the given configuration.
func New(cfg Config) (*Protocol, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Protocol{cfg: cfg, ws: []*scratch{{}}}, nil
}

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *Protocol {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "vicinity" }

// EnsureWorkers implements core.WorkerTopology, growing the worker-slot
// table (single-threaded; called before any worker starts).
func (p *Protocol) EnsureWorkers(n int) {
	for len(p.ws) < n {
		p.ws = append(p.ws, &scratch{})
	}
}

// InitNode implements sim.Protocol: seed with random peers.
func (p *Protocol) InitNode(e *sim.Engine, id sim.NodeID) {
	for len(p.views) <= int(id) {
		p.views = append(p.views, nil)
	}
	peers := p.cfg.Sampler.RandomPeers(e, id, p.cfg.ViewSize/2)
	view := make([]entry, len(peers))
	for i, peer := range peers {
		view[i] = entry{id: peer}
	}
	p.views[id] = view
}

// Step implements sim.Protocol: one Vicinity exchange initiated by id.
func (p *Protocol) Step(e *sim.Engine, id sim.NodeID) {
	p.StepW(e.SeqCtx(), id)
}

// StepW implements sim.Batched: the exchange under an explicit step
// context (the sequential Step routes through it byte-identically).
func (p *Protocol) StepW(ctx *sim.StepCtx, id sim.NodeID) {
	e := ctx.Engine()
	scr := p.ws[ctx.Worker()]
	p.purgeDead(ctx, scr, id)
	view := p.views[id]

	// Blend fresh randomness from the sampling layer into the candidate
	// pool — Vicinity's lower Cyclon feed, which guarantees convergence.
	scr.peerBuf = p.cfg.Sampler.AppendRandomPeersW(ctx, scr.peerBuf[:0], id, p.cfg.RandomMix)
	for _, r := range scr.peerBuf {
		if r != id && !p.contains(view, r) {
			view = append(view, entry{id: r})
		}
	}
	p.views[id] = view
	if len(view) == 0 {
		return
	}

	// Age links and gossip with the oldest one.
	oldest := 0
	for i := range view {
		view[i].age++
		if view[i].age > view[oldest].age {
			oldest = i
		}
	}
	q := view[oldest].id
	if !e.Alive(q) {
		view[oldest] = view[len(view)-1]
		p.views[id] = view[:len(view)-1]
		return
	}
	ctx.Touch(q)
	view[oldest].age = 0 // refreshed by this exchange
	p.purgeDead(ctx, scr, q)

	// Symmetric exchange of full views (plus self), capped at MsgSize.
	sentToQ := p.descriptorsFor(id, q, &scr.bufA)
	sentToP := p.descriptorsFor(q, id, &scr.bufB)
	ctx.Charge((len(sentToQ) + len(sentToP)) * sim.DescriptorCost(p.cfg.Space.Dim()))

	p.merge(e, scr, id, sentToP)
	p.merge(e, scr, q, sentToQ)
}

// descriptorsFor returns owner's view plus itself, excluding the receiver,
// capped at MsgSize, into the pooled buffer buf.
func (p *Protocol) descriptorsFor(owner, receiver sim.NodeID, buf *[]sim.NodeID) []sim.NodeID {
	view := p.views[owner]
	out := append((*buf)[:0], owner)
	for _, en := range view {
		if en.id != receiver {
			out = append(out, en.id)
		}
	}
	if len(out) > p.cfg.MsgSize {
		out = out[:p.cfg.MsgSize]
	}
	*buf = out
	return out
}

// merge folds received descriptors into owner's view, keeping the
// ViewSize entries closest to owner's current position (ties toward the
// earlier view slot). Ages of surviving entries are preserved; new
// entries start at age 0.
func (p *Protocol) merge(e *sim.Engine, scr *scratch, owner sim.NodeID, received []sim.NodeID) {
	view := p.views[owner]
	for _, r := range received {
		if r != owner && !p.contains(view, r) && e.Alive(r) {
			view = append(view, entry{id: r})
		}
	}
	if len(view) > p.cfg.ViewSize {
		// Stage the selected entries in the pooled buffer, then write them
		// back into the view's own backing array: an in-place permutation
		// would clobber entries still pending, and a fresh slice per merge
		// is exactly the allocation this path avoids.
		idx := p.selectView(scr, view, owner, p.cfg.ViewSize)
		kept := scr.keepBuf[:0]
		for _, j := range idx {
			kept = append(kept, view[j])
		}
		scr.keepBuf = kept
		view = view[:copy(view, kept)]
	}
	p.views[owner] = view
}

// selectView partially selects the up-to-k view indices whose entries are
// closest to id's current position, ordered by increasing distance (ties
// toward the earlier view slot). The result aliases the slot's pooled
// scratch: it is only valid until the slot's next selection and must not
// be retained.
func (p *Protocol) selectView(scr *scratch, view []entry, id sim.NodeID, k int) []int {
	return p.rank(&scr.sel, &scr.ids, view, id, k)
}

// rank is the selection both selectView and the matcher's mirror run:
// it stages the entries' NodeIDs in *ids, computes their distances to
// id's position straight from the position arena, and keeps the k
// closest view indices.
func (p *Protocol) rank(sel *topk.Scratch[int], ids *[]sim.NodeID, view []entry, id sim.NodeID, k int) []int {
	dist, idx := sel.Get(len(view))
	slots := (*ids)[:0]
	for i, en := range view {
		slots = append(slots, en.id)
		idx[i] = i
	}
	*ids = slots
	pos := p.cfg.Positions()
	space.Distances(p.cfg.Space, pos, pos.At(int(id)), slots, dist)
	k = topk.SmallestK(dist, idx, k)
	return idx[:k]
}

func (p *Protocol) contains(view []entry, id sim.NodeID) bool {
	for _, en := range view {
		if en.id == id {
			return true
		}
	}
	return false
}

// purgeDead drops crashed peers from id's view and re-seeds an emptied
// view from the sampling layer, reusing the view's backing array for the
// re-seed (the draw sequence matches InitNode's exactly).
func (p *Protocol) purgeDead(ctx *sim.StepCtx, scr *scratch, id sim.NodeID) {
	e := ctx.Engine()
	view := p.views[id]
	kept := view[:0]
	for _, en := range view {
		if e.Alive(en.id) {
			kept = append(kept, en)
		}
	}
	p.views[id] = kept
	if len(kept) == 0 {
		scr.peerBuf = p.cfg.Sampler.AppendRandomPeersW(ctx, scr.peerBuf[:0], id, p.cfg.ViewSize/2)
		if cap(kept) < len(scr.peerBuf) {
			kept = make([]entry, 0, p.cfg.ViewSize)
		}
		for _, peer := range scr.peerBuf {
			kept = append(kept, entry{id: peer})
		}
		p.views[id] = kept
	}
}

// --- sim.Batched ---

// Batchable implements sim.Batched: exchanges are always pair-local.
func (p *Protocol) Batchable() bool { return true }

// BeginBatchedRound implements sim.Batched, sizing per-worker scratch.
func (p *Protocol) BeginBatchedRound(e *sim.Engine, workers int) {
	p.EnsureWorkers(workers)
}

// PlanStep implements sim.Batched: it predicts the exchange partner of
// StepW(id) — the oldest entry after the purge (with its possible
// re-seed) and the random blend-in, both replicated draw-for-draw on the
// throwaway stream — without mutating anything, and appends {id, partner}
// (or {id} for a no-op step) to dst.
func (p *Protocol) PlanStep(e *sim.Engine, rng *xrand.Rand, id sim.NodeID, dst []sim.NodeID) []sim.NodeID {
	dst = append(dst, id)
	// Mirror purgeDead: live entries keep order; an emptied view re-seeds.
	lv := p.plan.view[:0]
	for _, en := range p.views[id] {
		if e.Alive(en.id) {
			lv = append(lv, en)
		}
	}
	if len(lv) == 0 {
		p.plan.peers = p.cfg.Sampler.AppendPlanRandomPeers(p.plan.peers[:0], e, rng, id, p.cfg.ViewSize/2)
		for _, peer := range p.plan.peers {
			lv = append(lv, entry{id: peer})
		}
	}
	// Mirror the random blend-in.
	p.plan.peers = p.cfg.Sampler.AppendPlanRandomPeers(p.plan.peers[:0], e, rng, id, p.cfg.RandomMix)
	for _, r := range p.plan.peers {
		if r != id && !p.contains(lv, r) {
			lv = append(lv, entry{id: r})
		}
	}
	p.plan.view = lv
	if len(lv) == 0 {
		return dst
	}
	// Ageing is uniform, so the partner is the first strictly-oldest entry.
	oldest := 0
	for i := range lv {
		if lv[i].age > lv[oldest].age {
			oldest = i
		}
	}
	return append(dst, lv[oldest].id)
}

// FlushBatch implements sim.Batched (the exchange defers nothing).
func (p *Protocol) FlushBatch(e *sim.Engine) {}

// EndBatchedRound implements sim.Batched.
func (p *Protocol) EndBatchedRound(e *sim.Engine) {}

// planSelectView is selectView over the matcher's mirror scratch.
func (p *Protocol) planSelectView(view []entry, id sim.NodeID, k int) []int {
	return p.rank(&p.plan.sel, &p.plan.ids, view, id, k)
}

// --- core.Topology ---

// AppendNeighbors implements core.Topology: it appends the k closest view
// entries of id to dst, ordered by increasing distance to id's current
// position, and returns the extended slice. With a caller-owned buffer
// the query is allocation-free. It runs on worker slot 0; batched steps
// of layers above use AppendNeighborsW.
func (p *Protocol) AppendNeighbors(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	return p.AppendNeighborsW(0, dst, id, k)
}

// AppendNeighborsW implements core.WorkerTopology: AppendNeighbors over
// worker slot w's selection scratch.
func (p *Protocol) AppendNeighborsW(w int, dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return dst
	}
	view := p.views[id]
	for _, j := range p.selectView(p.ws[w], view, id, k) {
		dst = append(dst, view[j].id)
	}
	return dst
}

// AppendNeighborsPlan implements core.WorkerTopology: AppendNeighbors over
// the matcher's mirror scratch, for conflict-set planning by the layer
// above.
func (p *Protocol) AppendNeighborsPlan(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return dst
	}
	view := p.views[id]
	for _, j := range p.planSelectView(view, id, k) {
		dst = append(dst, view[j].id)
	}
	return dst
}

// EachNeighbor implements core.Topology: it calls yield for each of the k
// closest view entries of id in increasing distance order, stopping early
// if yield returns false. The iteration runs over the pooled selection
// scratch, so yield must not call back into this protocol.
func (p *Protocol) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return
	}
	view := p.views[id]
	for _, j := range p.selectView(p.ws[0], view, id, k) {
		if !yield(view[j].id) {
			return
		}
	}
}

// Neighbors returns the k closest view entries of id as a fresh slice,
// ordered by increasing distance to id's current position — the legacy
// one-shot form, kept for callers without a reusable buffer. Hot paths
// use AppendNeighbors or EachNeighbor, which do not allocate.
func (p *Protocol) Neighbors(id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return nil
	}
	view := p.views[id]
	idx := p.selectView(p.ws[0], view, id, k)
	out := make([]sim.NodeID, len(idx))
	for i, j := range idx {
		out[i] = view[j].id
	}
	return out
}

// ViewSize returns id's current view size.
func (p *Protocol) ViewSize(id sim.NodeID) int {
	if id < 0 || int(id) >= len(p.views) {
		return 0
	}
	return len(p.views[id])
}

// View returns a copy of id's raw view.
func (p *Protocol) View(id sim.NodeID) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) {
		return nil
	}
	out := make([]sim.NodeID, len(p.views[id]))
	for i, en := range p.views[id] {
		out[i] = en.id
	}
	return out
}
