// Package tman implements the T-Man decentralized topology-construction
// protocol (Jelasity, Montresor & Babaoglu, Computer Networks 2009), the
// middle layer of the paper's stack and also its evaluation baseline.
//
// T-Man greedily organises nodes so that each ends up linked to its
// closest peers in a metric space: every round a node picks an exchange
// partner among its ψ closest neighbours, the two swap the m descriptors
// most useful to each other, and both keep the closest entries up to a
// view cap. Fresh random peers from the peer-sampling layer are folded in
// to guarantee convergence from any starting state (paper Sec. II-B).
//
// A key property required by Polystyrene (Sec. II-C) is that T-Man does
// not own node positions: it reads them from a position arena
// (space.Arena, slot = NodeID) through the Config.Positions handle. With
// plain T-Man the arena holds the nodes' fixed original data points; with
// Polystyrene on top it holds the medoids of the nodes' guests, which
// change as data points migrate — this is how nodes "move" on the shape.
//
// Message-cost accounting follows the paper (Sec. IV-A): a descriptor
// (ID + position) costs 1 + dim units. Because positions are dynamic,
// T-Man also refreshes the coordinates of every view entry each round
// ("T-Man must update their positions in its view in each round, causing
// most of the traffic", Sec. IV-B), at dim units per entry.
//
// Ranking view entries by distance is the hottest code path of the whole
// simulator, so distances come straight from the arena's coordinates
// (space.Distances, one handle call per selection), selections go through
// topk.SmallestK (partial selection, no comparator closures) over scratch
// buffers pooled per worker slot, and set-membership during merges uses a
// generation-stamped array indexed by the engine's dense NodeIDs. The
// sequential engine only ever uses slot 0; under intra-round exchange
// batching (sim.Batched) each worker owns a slot and the batch matcher
// plans on a dedicated mirror scratch. An exchange's conflict set is
// {initiator, partner}: Step reads and writes only those two views (it
// reads the *positions* of ranked candidates too, but positions are frozen
// during a T-Man pass, and the Polystyrene layer above copies its arena
// for its own pass).
//
// Neighbour queries are exposed through the allocation-free two-form API
// of core.Topology — AppendNeighbors (caller-owned buffer) and
// EachNeighbor (zero-copy visitor over the pooled selection scratch) —
// with the legacy Neighbors form kept as a convenience wrapper. Pooled
// buffers are trimmed against a decaying high-water mark so the merge
// wave after a catastrophic failure does not pin worst-case capacity for
// the rest of a run.
package tman

import (
	"fmt"

	"polystyrene/internal/genset"
	"polystyrene/internal/rps"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/topk"
	"polystyrene/internal/xrand"
)

// Defaults from the paper's experimental setting (Sec. IV-A).
const (
	// DefaultViewCap bounds the T-Man view ("capped to 100 peers").
	DefaultViewCap = 100
	// DefaultMsgSize is m, the number of descriptors per message.
	DefaultMsgSize = 20
	// DefaultPsi is ψ, the number of closest neighbours the exchange
	// partner is drawn from.
	DefaultPsi = 5
	// DefaultInitDegree is the number of random peers a node's view is
	// seeded with ("initialized with 10 random neighbors from RPS").
	DefaultInitDegree = 10
)

// Config parameterises the protocol. Space, Sampler and Positions are
// required; zero-valued numeric fields take the paper's defaults.
type Config struct {
	// Space is the metric space positions live in.
	Space space.Space
	// Sampler is the underlying peer-sampling layer.
	Sampler *rps.Protocol
	// Positions returns the position arena to rank by: slot id holds node
	// id's current virtual position, for every node the engine has. It is
	// called once per selection, never while positions change, and the
	// points read from it are valid until the node's next projection.
	Positions func() space.Arena
	// ViewCap bounds the view size.
	ViewCap int
	// MsgSize is the number of descriptors per exchanged message (m).
	MsgSize int
	// Psi is the partner-selection window (ψ).
	Psi int
	// InitDegree seeds a joining node's view with this many random peers.
	InitDegree int
}

func (c Config) withDefaults() (Config, error) {
	if c.Space == nil {
		return c, fmt.Errorf("tman: Config.Space is required")
	}
	if c.Sampler == nil {
		return c, fmt.Errorf("tman: Config.Sampler is required")
	}
	if c.Positions == nil {
		return c, fmt.Errorf("tman: Config.Positions is required")
	}
	if c.ViewCap <= 0 {
		c.ViewCap = DefaultViewCap
	}
	if c.MsgSize <= 0 {
		c.MsgSize = DefaultMsgSize
	}
	if c.Psi <= 0 {
		c.Psi = DefaultPsi
	}
	if c.InitDegree <= 0 {
		c.InitDegree = DefaultInitDegree
	}
	return c, nil
}

// Pooled-scratch trimming parameters: every scratchTrimInterval steps a
// worker slot compares its pooled buffer capacities against
// scratchTrimSlack times the high-water candidate size of the elapsed
// window and releases buffers above it. A 50%-failure round balloons merge
// candidate sets for a few rounds; without the trim those transients would
// pin worst-case capacity for the remainder of a run.
const (
	scratchTrimInterval = 4096
	scratchTrimSlack    = 2
)

// scratch is one worker slot's pooled exchange state.
type scratch struct {
	// sel holds the pooled parallel (distance, id) selection arrays.
	sel topk.Scratch[sim.NodeID]
	// candBuf assembles the owner+view candidate set for buildBuffer and
	// the partner-selection window.
	candBuf []sim.NodeID
	// msgA/msgB are the two in-flight message buffers of Step; both live
	// across a merge pair, so they need separate backing arrays.
	msgA []sim.NodeID
	msgB []sim.NodeID
	// seen is the pooled membership set over dense NodeIDs used by merges.
	seen genset.Set

	// hwMark is the largest selection candidate set of the current trim
	// window; hwSteps counts the steps elapsed in it.
	hwMark  int
	hwSteps int
}

// Protocol is the T-Man layer. It implements sim.Protocol, sim.Batched
// and core.Topology.
type Protocol struct {
	cfg   Config
	views [][]sim.NodeID

	// ws holds one scratch per worker slot (slot 0 is the sequential
	// engine's and the external query path's); plan backs the matcher's
	// read-only selection mirrors.
	ws   []*scratch
	plan struct {
		sel  topk.Scratch[sim.NodeID]
		cand []sim.NodeID
		part []sim.NodeID
	}
	// psiCache hands each planned step's ψ-window ranking (the expensive,
	// draw-free part of partner selection) from PlanStep to StepW.
	psiCache sim.WindowCache
}

var _ sim.Protocol = (*Protocol)(nil)
var _ sim.Batched = (*Protocol)(nil)

// New returns a T-Man layer with the given configuration.
func New(cfg Config) (*Protocol, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Protocol{cfg: cfg, ws: []*scratch{{}}, psiCache: sim.NewWindowCache(cfg.Psi)}, nil
}

// MustNew is New but panics on configuration errors; intended for tests
// and examples where the configuration is statically known to be valid.
func MustNew(cfg Config) *Protocol {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "tman" }

// EnsureWorkers implements core.WorkerTopology, growing the worker-slot
// table (single-threaded; called before any worker starts).
func (p *Protocol) EnsureWorkers(n int) {
	for len(p.ws) < n {
		p.ws = append(p.ws, &scratch{})
	}
}

// InitNode implements sim.Protocol, seeding the view with random peers.
func (p *Protocol) InitNode(e *sim.Engine, id sim.NodeID) {
	for len(p.views) <= int(id) {
		p.views = append(p.views, nil)
	}
	p.views[id] = p.cfg.Sampler.RandomPeers(e, id, p.cfg.InitDegree)
}

// Step implements sim.Protocol: one T-Man gossip exchange initiated by id.
func (p *Protocol) Step(e *sim.Engine, id sim.NodeID) {
	p.StepW(e.SeqCtx(), id)
}

// StepW implements sim.Batched: the exchange under an explicit step
// context (the sequential Step routes through it byte-identically).
func (p *Protocol) StepW(ctx *sim.StepCtx, id sim.NodeID) {
	e := ctx.Engine()
	scr := p.ws[ctx.Worker()]
	p.maybeTrimScratch(scr)
	p.purgeDead(ctx, id)
	// Refresh stale coordinates of the whole view: positions move every
	// round under Polystyrene, and the paper attributes most communication
	// traffic to these per-round position updates.
	ctx.Charge(len(p.views[id]) * sim.PointCost(p.cfg.Space.Dim()))

	q := p.selectPartner(ctx, scr, id)
	if q == sim.None {
		return
	}
	ctx.Touch(q)
	p.purgeDead(ctx, q)

	// Each side sends the m descriptors most useful to the other, drawn
	// from its view plus its own fresh descriptor. Both buffers are pooled
	// on the worker slot: merge copies what it keeps into the views.
	scr.msgA = p.buildBuffer(scr, scr.msgA[:0], id, q)
	scr.msgB = p.buildBuffer(scr, scr.msgB[:0], q, id)
	descCost := sim.DescriptorCost(p.cfg.Space.Dim())
	ctx.Charge((len(scr.msgA) + len(scr.msgB)) * descCost)

	p.merge(e, scr, id, scr.msgB)
	p.merge(e, scr, q, scr.msgA)
}

// selectPartner draws the exchange partner uniformly from the ψ closest
// live view entries, augmented with one random peer from the sampling
// layer (which guarantees convergence and re-connects isolated nodes).
// Batched steps reuse the ψ ranking their plan already computed (it is
// draw-free, so the stream stays aligned with the plan's replay).
func (p *Protocol) selectPartner(ctx *sim.StepCtx, scr *scratch, id sim.NodeID) sim.NodeID {
	var candidates []sim.NodeID
	if ctx.Batched() {
		candidates = p.psiCache.Append(scr.candBuf[:0], id)
	} else {
		candidates = append(scr.candBuf[:0], p.selectClosest(scr, p.views[id], id, p.cfg.Psi)...)
	}
	if r := p.cfg.Sampler.RandomPeerW(ctx, id); r != sim.None && r != id {
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
	scr.candBuf = candidates
	if len(candidates) == 0 {
		return sim.None
	}
	return candidates[ctx.Rand().Intn(len(candidates))]
}

// buildBuffer appends to dst up to m descriptors from owner's view plus
// owner itself, ranked by proximity to the receiver's position.
func (p *Protocol) buildBuffer(scr *scratch, dst []sim.NodeID, owner, receiver sim.NodeID) []sim.NodeID {
	view := p.views[owner]
	cand := append(scr.candBuf[:0], owner)
	cand = append(cand, view...)
	scr.candBuf = cand
	return append(dst, p.selectClosest(scr, cand, receiver, p.cfg.MsgSize)...)
}

// selectClosest partially selects the up-to-k IDs of cand whose positions
// are closest to node to's position, ordered by increasing distance (ties
// toward the lower ID). Distances are evaluated once per candidate,
// straight from the position arena; selection is a topk pass over the
// slot's pooled scratch and the result aliases that scratch: it is only
// valid until the slot's next selection and must not be retained.
// Nothing is allocated.
func (p *Protocol) selectClosest(scr *scratch, cand []sim.NodeID, to sim.NodeID, k int) []sim.NodeID {
	p.noteScratch(scr, len(cand))
	return p.rank(&scr.sel, cand, to, k)
}

// rank is the selection both selectClosest and the matcher's mirror run:
// it copies cand into sel, computes every candidate's distance to node
// to from the arena and keeps the k closest.
func (p *Protocol) rank(sel *topk.Scratch[sim.NodeID], cand []sim.NodeID, to sim.NodeID, k int) []sim.NodeID {
	dist, ids := sel.Get(len(cand))
	copy(ids, cand)
	pos := p.cfg.Positions()
	space.Distances(p.cfg.Space, pos, pos.At(int(to)), ids, dist)
	k = topk.SmallestK(dist, ids, k)
	return ids[:k]
}

// merge folds received descriptors into owner's view and keeps the
// entries closest to owner's position, up to the view cap. The capped
// selection writes back into the view's own backing array, so steady-state
// merges allocate nothing.
func (p *Protocol) merge(e *sim.Engine, scr *scratch, owner sim.NodeID, received []sim.NodeID) {
	view := p.views[owner]
	stamp, gen := scr.seen.Next(e.NumNodes())
	stamp[owner] = gen
	for _, v := range view {
		stamp[v] = gen
	}
	for _, r := range received {
		if stamp[r] != gen && e.Alive(r) {
			stamp[r] = gen
			view = append(view, r)
		}
	}
	if len(view) > p.cfg.ViewCap {
		sel := p.selectClosest(scr, view, owner, p.cfg.ViewCap)
		view = view[:copy(view, sel)]
	}
	p.views[owner] = view
}

// purgeDead removes crashed nodes from id's view; if the view empties out
// it is re-seeded from the sampling layer (healing after failures),
// appending into the view's own backing so the re-seed allocates nothing.
// A view whose backing array vastly exceeds the surviving entries — the
// aftermath of a catastrophic failure on a small surviving population —
// is compacted so dead capacity is not pinned for the rest of the run.
func (p *Protocol) purgeDead(ctx *sim.StepCtx, id sim.NodeID) {
	e := ctx.Engine()
	view := p.views[id]
	kept := view[:0]
	for _, v := range view {
		if e.Alive(v) {
			kept = append(kept, v)
		}
	}
	floor := len(kept)
	if floor < p.cfg.InitDegree {
		floor = p.cfg.InitDegree
	}
	if len(kept) > 0 && cap(kept) > scratchTrimSlack*floor {
		compact := make([]sim.NodeID, len(kept))
		copy(compact, kept)
		kept = compact
	}
	p.views[id] = kept
	if len(kept) == 0 {
		if cap(kept) < p.cfg.InitDegree {
			kept = make([]sim.NodeID, 0, p.cfg.InitDegree)
		}
		p.views[id] = p.cfg.Sampler.AppendRandomPeersW(ctx, kept, id, p.cfg.InitDegree)
	}
}

// noteScratch records a selection candidate size in the slot's trim
// window's high-water mark.
func (p *Protocol) noteScratch(scr *scratch, n int) {
	if n > scr.hwMark {
		scr.hwMark = n
	}
}

// maybeTrimScratch closes a slot's trim window: when the pooled selection
// and message buffers grew beyond scratchTrimSlack times the window's
// largest actual use, they are released and reallocated at working size on
// next use. This bounds the memory a transient worst case (a
// post-catastrophe merge wave) can pin.
func (p *Protocol) maybeTrimScratch(scr *scratch) {
	scr.hwSteps++
	if scr.hwSteps < scratchTrimInterval {
		return
	}
	limit := scratchTrimSlack * scr.hwMark
	if limit < p.cfg.InitDegree {
		limit = p.cfg.InitDegree
	}
	scr.sel.Shrink(limit)
	if cap(scr.candBuf) > limit {
		scr.candBuf = nil
	}
	if cap(scr.msgA) > limit {
		scr.msgA = nil
	}
	if cap(scr.msgB) > limit {
		scr.msgB = nil
	}
	scr.hwMark, scr.hwSteps = 0, 0
}

// --- sim.Batched ---

// Batchable implements sim.Batched: exchanges are always pair-local.
func (p *Protocol) Batchable() bool { return true }

// BeginBatchedRound implements sim.Batched, sizing per-worker scratch for
// this layer's own pass and for the neighbour queries the layers above
// issue from their workers (AppendNeighborsW).
func (p *Protocol) BeginBatchedRound(e *sim.Engine, workers int) {
	p.EnsureWorkers(workers)
}

// PlanStep implements sim.Batched: it predicts the exchange partner of
// StepW(id) by mirroring the selection prefix — purge (and possible
// re-seed, replicated draw-for-draw on the throwaway stream), the ψ-window
// ranking, the blended random peer and the final uniform pick — without
// mutating any state, and appends {id, partner} (or {id} alone when the
// step will be a no-op) to dst.
func (p *Protocol) PlanStep(e *sim.Engine, rng *xrand.Rand, id sim.NodeID, dst []sim.NodeID) []sim.NodeID {
	dst = append(dst, id)
	// Mirror purgeDead(id): live entries keep their order; an emptied view
	// is re-seeded from the sampling layer.
	view := p.plan.cand[:0]
	for _, v := range p.views[id] {
		if e.Alive(v) {
			view = append(view, v)
		}
	}
	if len(view) == 0 {
		view = p.cfg.Sampler.AppendPlanRandomPeers(view, e, rng, id, p.cfg.InitDegree)
	}
	p.plan.cand = view

	// Mirror selectPartner over the (possibly re-seeded) view, handing
	// the ranked window to StepW through the per-node cache.
	candidates := append(p.plan.part[:0], p.planSelectClosest(view, id, p.cfg.Psi)...)
	p.psiCache.Put(id, candidates)
	if r := p.cfg.Sampler.PlanRandomPeer(e, rng, id); r != sim.None && r != id {
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
	p.plan.part = candidates
	if len(candidates) == 0 {
		return dst
	}
	return append(dst, candidates[rng.Intn(len(candidates))])
}

// planSelectClosest is selectClosest over the matcher's mirror scratch
// (no high-water accounting: planning must not perturb worker trims).
func (p *Protocol) planSelectClosest(cand []sim.NodeID, to sim.NodeID, k int) []sim.NodeID {
	return p.rank(&p.plan.sel, cand, to, k)
}

// FlushBatch implements sim.Batched (the exchange defers nothing).
func (p *Protocol) FlushBatch(e *sim.Engine) {}

// EndBatchedRound implements sim.Batched.
func (p *Protocol) EndBatchedRound(e *sim.Engine) {}

// --- core.Topology ---

// AppendNeighbors implements core.Topology: it appends the k closest live
// view entries of id to dst, ordered by increasing distance to id's
// current position, and returns the extended slice. With a caller-owned
// buffer the query is allocation-free; this is what the layers above
// consume (Polystyrene migration uses ψ, the evaluation metrics k = 4).
// It runs on worker slot 0 — the sequential engine's and the observers'
// slot; batched steps of layers above use AppendNeighborsW.
func (p *Protocol) AppendNeighbors(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	return p.AppendNeighborsW(0, dst, id, k)
}

// AppendNeighborsW implements core.WorkerTopology: AppendNeighbors over
// worker slot w's selection scratch, so concurrent batched steps of the
// layer above can query the overlay without sharing buffers.
func (p *Protocol) AppendNeighborsW(w int, dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return dst
	}
	scr := p.ws[w]
	return append(dst, p.selectClosest(scr, p.views[id], id, k)...)
}

// AppendNeighborsPlan implements core.WorkerTopology: AppendNeighbors over
// the matcher's mirror scratch, for conflict-set planning by the layer
// above (single-threaded, between batches).
func (p *Protocol) AppendNeighborsPlan(dst []sim.NodeID, id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return dst
	}
	return append(dst, p.planSelectClosest(p.views[id], id, k)...)
}

// EachNeighbor implements core.Topology: it calls yield for each of the k
// closest live view entries of id in increasing distance order, stopping
// early if yield returns false. The iteration runs over the pooled
// selection scratch, so yield must not call back into this protocol.
func (p *Protocol) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return
	}
	for _, nb := range p.selectClosest(p.ws[0], p.views[id], id, k) {
		if !yield(nb) {
			return
		}
	}
}

// Neighbors returns the k closest live view entries of id as a fresh
// slice, ordered by increasing distance to id's current position — the
// legacy one-shot form, kept for callers without a reusable buffer.
// Hot paths use AppendNeighbors or EachNeighbor, which do not allocate.
func (p *Protocol) Neighbors(id sim.NodeID, k int) []sim.NodeID {
	if id < 0 || int(id) >= len(p.views) || k <= 0 {
		return nil
	}
	sel := p.selectClosest(p.ws[0], p.views[id], id, k)
	out := make([]sim.NodeID, len(sel))
	copy(out, sel)
	return out
}

// ViewSize returns the current view size of id (test/metrics helper).
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
	copy(out, p.views[id])
	return out
}
