package exec

import (
	"herdcats/internal/events"
	"herdcats/internal/litmus"
	"herdcats/internal/rel"
)

// The data-flow enumeration over one trace combination is a decision tree:
// first an rf choice per memory read (decRF), then, location by location,
// the coherence order as a sequence of choose-the-next-write decisions
// (decCO). Decisions are addressed by a flat level index with a static
// width per level; the walker visits the tree depth-first in the
// lexicographic order of the choice vectors, so the candidate stream is
// deterministic.

type decisionKind uint8

const (
	decRF decisionKind = iota // pick the write feeding read #read
	decCO                     // pick position #pos of location #loc's order
)

type decision struct {
	kind decisionKind
	read int // index into expansion.reads (decRF)
	loc  int // index into expansion.locs (decCO)
	pos  int // 0-based position among the non-init writes (decCO)
}

// expansion is the assembled skeleton of one trace combination: the global
// event structure with its fixed relations (po, iico, rf-reg), plus the
// decision tree over it. It is immutable once built, except for the
// one-shot static derivation below.
type expansion struct {
	p         *Program
	evs       []events.Event
	n         int
	x         *events.Execution // skeleton: PO/IICO/RFReg set, RF/CO empty
	finalRegs map[litmus.RegKey]litmus.Value
	baseMem   map[string]litmus.Value // final memory of single-write locations

	// derived records the skeleton's DeriveStatic: the static derived
	// state (sets, po-loc, fences, dependencies) is identical for every
	// candidate of the expansion, so it is computed once at the first
	// emitted candidate and shared into all of them via AdoptStatic.
	derived bool

	reads     []int   // memory-read event IDs, in event order
	rfCands   [][]int // per read: feeding-write candidates (same loc+value)
	readIdxOf []int   // event ID -> index into reads (-1 otherwise)

	// Multi-write locations, in Program.locs order.
	locs []coLoc

	decisions []decision
	widths    []int // static width of each decision level
}

// coLoc is a location with writes besides its initial one: its coherence
// order is a decision, and its po-loc∪com projection is the prune check.
type coLoc struct {
	name   string
	writes []int    // write event IDs, init first
	reads  []int    // read event IDs
	local  []int    // event ID -> local node index (-1): writes, then reads
	po     [][2]int // po-loc edges, in local indices
	poRR   []bool   // parallel to po: both endpoints are reads
}

// newExpansion assembles the skeleton for one trace per thread, whose
// every read has a same-location, same-value write to read from (the
// search checks that with feeds before calling).
func (p *Program) newExpansion(init []int, traces []*Trace) *expansion {
	x, finalRegs := p.skeleton(init, traces)
	evs := x.Events
	n := len(evs)

	// Gather reads and per-location accesses.
	var reads []int
	readIdxOf := make([]int, n)
	for i := range readIdxOf {
		readIdxOf[i] = -1
	}
	writesOf := map[string][]int{}
	readsOf := map[string][]int{}
	for _, e := range evs {
		switch e.Kind {
		case events.MemRead:
			readIdxOf[e.ID] = len(reads)
			reads = append(reads, e.ID)
			readsOf[e.Loc] = append(readsOf[e.Loc], e.ID)
		case events.MemWrite:
			writesOf[e.Loc] = append(writesOf[e.Loc], e.ID)
		}
	}
	// rf candidates per read: same location, same value.
	rfCands := make([][]int, len(reads))
	for i, r := range reads {
		re := evs[r]
		for _, w := range writesOf[re.Loc] {
			if evs[w].Val == re.Val {
				rfCands[i] = append(rfCands[i], w)
			}
		}
	}

	e := &expansion{
		p: p, evs: evs, n: n, x: x,
		finalRegs: finalRegs,
		baseMem:   map[string]litmus.Value{},
		reads:     reads, rfCands: rfCands, readIdxOf: readIdxOf,
	}
	for _, loc := range p.locs {
		ws := writesOf[loc]
		if len(ws) <= 1 { // just the init write: co is empty, order fixed
			e.baseMem[loc] = p.Decode(evs[ws[len(ws)-1]].Val)
			continue
		}
		if e.locs == nil {
			e.locs = make([]coLoc, 0, len(p.locs))
		}
		cl := coLoc{name: loc, writes: ws, reads: readsOf[loc], local: make([]int, n)}
		for i := range cl.local {
			cl.local[i] = -1
		}
		members := make([]int, 0, len(cl.writes)+len(cl.reads))
		members = append(append(members, cl.writes...), cl.reads...)
		for i, id := range members {
			cl.local[id] = i
		}
		for _, a := range members {
			for _, b := range members {
				if x.PO.Has(a, b) {
					cl.po = append(cl.po, [2]int{cl.local[a], cl.local[b]})
					cl.poRR = append(cl.poRR, evs[a].Kind == events.MemRead && evs[b].Kind == events.MemRead)
				}
			}
		}
		e.locs = append(e.locs, cl)
	}

	// The decision tree: every rf level, then every co level.
	levels := len(reads)
	for _, cl := range e.locs {
		levels += len(cl.writes) - 1
	}
	e.decisions = make([]decision, 0, levels)
	e.widths = make([]int, 0, levels)
	for ri := range reads {
		e.decisions = append(e.decisions, decision{kind: decRF, read: ri})
		e.widths = append(e.widths, len(rfCands[ri]))
	}
	for li, cl := range e.locs {
		m := len(cl.writes) - 1 // non-init writes to place
		for pos := 0; pos < m; pos++ {
			e.decisions = append(e.decisions, decision{kind: decCO, loc: li, pos: pos})
			e.widths = append(e.widths, m-pos)
		}
	}
	return e
}

// walker holds the mutable decision state of one depth-first walk over an
// expansion's tree.
type walker struct {
	e     *expansion
	s     *search
	prune Prune

	rfPick []int    // per read: chosen feeding write
	orders [][]int  // per location: coherence order under construction
	used   [][]bool // per location: non-init writes already placed
}

func newWalker(e *expansion, s *search, prune Prune) *walker {
	w := &walker{
		e: e, s: s, prune: prune,
		rfPick: make([]int, len(e.reads)),
		orders: make([][]int, len(e.locs)),
		used:   make([][]bool, len(e.locs)),
	}
	for li, cl := range e.locs {
		ws := cl.writes
		order := make([]int, 1, len(ws))
		order[0] = ws[0] // the initial write is first by convention
		w.orders[li] = order
		w.used[li] = make([]bool, len(ws)-1)
	}
	return w
}

// apply takes choice c at the given decision level, mutating the walker
// state, and reports whether the resulting subtree is admissible (true) or
// pruned (false). Either way the state is mutated; call undo after.
func (w *walker) apply(level, c int) bool {
	d := w.e.decisions[level]
	if d.kind == decRF {
		wr := w.e.rfCands[d.read][c]
		w.rfPick[d.read] = wr
		// Quick check: a read feeding from a program-order-later write of
		// the same location is a 2-cycle (po-loc ∪ rf); the read-to-write
		// pair survives every prune level.
		if w.prune != PruneNone && w.e.x.PO.Has(w.e.reads[d.read], wr) {
			return false
		}
		return true
	}
	// decCO: place the c-th not-yet-used non-init write next, counting in
	// ascending event-ID order — the canonical (lexicographic) ordering.
	ws := w.e.locs[d.loc].writes
	used := w.used[d.loc]
	pick := -1
	for i, cnt := 0, -1; i < len(used); i++ {
		if used[i] {
			continue
		}
		if cnt++; cnt == c {
			pick = i
			break
		}
	}
	used[pick] = true
	w.orders[d.loc] = append(w.orders[d.loc], ws[pick+1])
	if w.prune != PruneNone && d.pos == len(used)-1 && !w.locAcyclic(d.loc) {
		return false // the location's order is complete and cyclic: prune
	}
	return true
}

// undo reverts the state change of the matching apply.
func (w *walker) undo(level int) {
	d := w.e.decisions[level]
	if d.kind == decRF {
		return // rfPick is overwritten by the next apply
	}
	order := w.orders[d.loc]
	placed := order[len(order)-1]
	w.orders[d.loc] = order[:len(order)-1]
	ws := w.e.locs[d.loc].writes
	for i := 1; i < len(ws); i++ {
		if ws[i] == placed {
			w.used[d.loc][i-1] = false
			return
		}
	}
}

// walk explores the subtree below level depth-first, emitting a candidate
// at every leaf. The visit order is the lexicographic order of the choice
// vectors, independent of how the levels above were assigned.
func (w *walker) walk(level int) {
	if level == len(w.e.decisions) {
		w.emitCandidate()
		return
	}
	for c := 0; c < w.e.widths[level]; c++ {
		if !w.s.alive(false) {
			return
		}
		if w.apply(level, c) {
			w.walk(level + 1)
		} else {
			w.s.pruned++
		}
		w.undo(level)
		if w.s.stopped {
			return
		}
	}
}

// locAcyclic checks the per-location projection of po-loc ∪ rf ∪ fr ∪ co
// for the (now fully ordered) location li, under the walker's prune level.
// Only same-location edges exist in any of the four relations, so this
// exactly decides whether the final candidate would violate the axiom at
// this location.
func (w *walker) locAcyclic(li int) bool {
	e := w.e
	cl := &e.locs[li]
	m := len(cl.writes) + len(cl.reads)
	local := cl.local
	order := w.orders[li]

	adj := make([][]int, m)
	add := func(a, b int) { adj[a] = append(adj[a], b) }
	for i, edge := range cl.po {
		if w.prune == PruneSCPerLocNoRR && cl.poRR[i] {
			continue // load-load hazard allowed: read-read pairs exempt
		}
		add(edge[0], edge[1])
	}
	// co: consecutive edges carry the same reachability as the full order.
	pos := make([]int, m) // order position of each write, by local index
	for i, wr := range order {
		pos[local[wr]] = i
		if i > 0 {
			add(local[order[i-1]], local[wr])
		}
	}
	for _, r := range cl.reads {
		wr := w.rfPick[e.readIdxOf[r]]
		add(local[wr], local[r]) // rf: w -> r
		if p := pos[local[wr]]; p+1 < len(order) {
			add(local[r], local[order[p+1]]) // fr: r -> first co-later write
		}
	}

	// Three-colour DFS over the (tiny) local graph.
	color := make([]int, m)
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = 1
		for _, u := range adj[v] {
			if color[u] == 1 {
				return false
			}
			if color[u] == 0 && !visit(u) {
				return false
			}
		}
		color[v] = 2
		return true
	}
	for v := 0; v < m; v++ {
		if color[v] == 0 && !visit(v) {
			return false
		}
	}
	return true
}

// candSlot is the reusable candidate arena of one search. Every candidate
// the search yields is materialised into the same Execution and final
// state, with the relation buffers drawn from (and recycled through) one
// rel.Arena — steady-state emission allocates nothing but the small
// Candidate header. The header is deliberately NOT part of the slot: it
// carries the emit-time generation, and stamping it into reused memory
// would overwrite a retained header's stamp, making Candidate.Expired
// always agree with the slot. The generation counter advances at every
// refill, so a candidate retained past its yield is detectably stale
// instead of silently corrupt. A slot belongs to exactly one search.
type candSlot struct {
	arena *rel.Arena
	x     events.Execution
	state litmus.State
	gen   uint64
}

// emitCandidate materialises the fully-decided assignment into the search's
// candidate slot and hands it to the search. The candidate shares the
// skeleton's event structure and static derived state (AdoptStatic); only
// rf, co and the dynamic derivation downstream of them are rebuilt, in
// place, per candidate. The previous candidate's buffers are overwritten:
// this is exactly the zero-copy yield contract documented on Candidate.
func (w *walker) emitCandidate() {
	e := w.e
	if !e.derived {
		e.x.DeriveStatic()
		e.derived = true
	}
	sl := w.s.candidateSlot()
	cx := &sl.x
	cx.Events = e.evs
	cx.PO = e.x.PO
	cx.IICO = e.x.IICO
	cx.IICOAddr = e.x.IICOAddr
	cx.IICOData = e.x.IICOData
	cx.RFReg = e.x.RFReg
	if cx.RF.N() != e.n {
		// First candidate, or the universe size changed with the trace
		// combination: draw fresh rf/co buffers (the arena re-anchors).
		cx.RF = sl.arena.Get(e.n)
		cx.CO = sl.arena.Get(e.n)
	} else {
		cx.RF.Clear()
		cx.CO.Clear()
	}
	for i, r := range e.reads {
		cx.RF.Add(w.rfPick[i], r)
	}
	if sl.state.Mem == nil {
		sl.state.Mem = make(map[string]litmus.Value, len(e.p.locs))
	}
	// Every location is either single-write (baseMem) or ordered below, so
	// each emission overwrites the full key set — no clearing needed.
	finalMem := sl.state.Mem
	for loc, v := range e.baseMem {
		finalMem[loc] = v
	}
	for li, cl := range e.locs {
		order := w.orders[li]
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				cx.CO.Add(order[i], order[j])
			}
		}
		finalMem[cl.name] = e.p.Decode(e.evs[order[len(order)-1]].Val)
	}
	cx.AdoptStatic(e.x)
	cx.DeriveDynamicInto(sl.arena)
	sl.state.Regs = e.finalRegs
	sl.gen++
	w.s.emit(&Candidate{X: cx, State: &sl.state, slot: sl, gen: sl.gen})
}
