// Package exec enumerates the candidate executions of a litmus test,
// following the three-stage recipe of Sec. 3 of the paper:
//
//  1. control-flow semantics: each thread's instructions are executed
//     concretely (package isa), one trace per assignment of values to its
//     memory reads, yielding events, iico and register read-from;
//  2. data-flow semantics: every read-from map (each read paired with a
//     same-location same-value write, possibly the initial write) and every
//     per-location coherence order are enumerated;
//  3. the resulting (E, po, rf, co) tuples are the candidate executions,
//     handed to a constraint specification (package core) for validation.
package exec

import (
	"context"
	"fmt"
	"sort"

	"herdcats/internal/events"
	"herdcats/internal/isa"
	"herdcats/internal/litmus"
	"herdcats/internal/obs"
)

// addrBase is the integer encoding of the first location's address.
// Locations are consecutive; litmus data values are small, so there is no
// overlap in practice (enforced in Compile).
const addrBase = 0x1000

// Candidate is one candidate execution with its observable final state.
//
// Ownership: a candidate delivered by Program.Search lives in the
// search's reusable arena slot and is valid only for the duration of the
// yield callback — the next candidate is derived into the same buffers,
// header included. Callers that retain a candidate (or any relation
// reachable from X) past their yield must take a Clone.
type Candidate struct {
	X     *events.Execution
	State *litmus.State
}

// Clone returns a standalone deep copy of the candidate that stays valid
// indefinitely. The skeleton state (events, po, iico, dependencies, fence
// relations) is immutable and stays shared; the per-candidate relations
// (rf, co and every dynamic derivation) and the final memory are copied.
func (c *Candidate) Clone() *Candidate {
	x := *c.X
	x.RF = c.X.RF.Clone()
	x.CO = c.X.CO.Clone()
	x.FR = c.X.FR.Clone()
	x.Com = c.X.Com.Clone()
	x.SW = c.X.SW.Clone()
	x.RFE, x.RFI = c.X.RFE.Clone(), c.X.RFI.Clone()
	x.COE, x.COI = c.X.COE.Clone(), c.X.COI.Clone()
	x.FRE, x.FRI = c.X.FRE.Clone(), c.X.FRI.Clone()
	x.CloneDynamicCache()
	st := &litmus.State{Regs: c.State.Regs, Mem: make(map[string]litmus.Value, len(c.State.Mem))}
	for k, v := range c.State.Mem {
		st.Mem[k] = v
	}
	return &Candidate{X: &x, State: st}
}

// Program is a compiled litmus test, ready for enumeration.
type Program struct {
	Test    *litmus.Test
	Threads [][]isa.Instr
	locs    []string       // sorted location names
	locIdx  map[string]int // name -> index
	domain  []int          // read-value domain
}

// Compile parses the threads of a test and prepares the value domain.
func Compile(t *litmus.Test) (*Program, error) {
	p := &Program{Test: t, locs: t.Locations, locIdx: map[string]int{}}
	for i, l := range t.Locations {
		p.locIdx[l] = i
	}
	for tid, lines := range t.Threads {
		instrs, err := isa.ParseThread(t.Arch, lines)
		if err != nil {
			return nil, fmt.Errorf("exec: thread %d: %v", tid, err)
		}
		p.Threads = append(p.Threads, instrs)
	}
	p.domain = p.valueDomain()
	for _, v := range p.domain {
		if v >= addrBase && v < addrBase+len(p.locs) && !p.isAddrDomain() {
			return nil, fmt.Errorf("exec: data value %d collides with address encoding", v)
		}
	}
	return p, nil
}

// encode turns a litmus value into its integer encoding.
func (p *Program) encode(v litmus.Value) (int, error) {
	if v.Loc == "" {
		return v.Int, nil
	}
	idx, ok := p.locIdx[v.Loc]
	if !ok {
		return 0, fmt.Errorf("exec: unknown location %q", v.Loc)
	}
	return addrBase + idx, nil
}

// Decode turns an encoded integer back into a litmus value.
func (p *Program) Decode(v int) litmus.Value {
	if v >= addrBase && v < addrBase+len(p.locs) {
		return litmus.Value{Loc: p.locs[v-addrBase]}
	}
	return litmus.Value{Int: v}
}

// Encode turns a litmus value into its integer encoding (see Decode).
func (p *Program) Encode(v litmus.Value) (int, error) { return p.encode(v) }

// InitValue returns the encoded initial value of a location.
func (p *Program) InitValue(loc string) (int, error) {
	return p.encode(p.Test.MemInit[loc])
}

func (p *Program) locOf(addr int) (string, bool) {
	if addr >= addrBase && addr < addrBase+len(p.locs) {
		return p.locs[addr-addrBase], true
	}
	return "", false
}

// isAddrDomain reports whether addresses can flow into memory (a location
// initially holds an address), in which case reads may observe addresses.
func (p *Program) isAddrDomain() bool {
	for _, v := range p.Test.MemInit {
		if v.Loc != "" {
			return true
		}
	}
	return false
}

// valueDomain computes the set of values a memory read can plausibly
// return: initial values, stored immediates, condition constants, closed
// under the arithmetic the program performs (bounded).
func (p *Program) valueDomain() []int {
	set := map[int]bool{0: true}
	addInt := func(v int) { set[v] = true }
	for _, th := range p.Threads {
		for _, in := range th {
			switch in.Op {
			case isa.OpLi, isa.OpStoreAI, isa.OpAddi:
				addInt(in.Imm)
			}
		}
	}
	for _, v := range p.Test.MemInit {
		if enc, err := p.encode(v); err == nil {
			addInt(enc)
		}
	}
	for _, v := range p.Test.RegInit {
		if v.Loc == "" {
			addInt(v.Int)
		}
	}
	if p.Test.Cond != nil {
		addCondInts(p.Test.Cond, p, set)
	}
	// Close under the operations the program actually uses, capped.
	ops := map[isa.Op]bool{}
	for _, th := range p.Threads {
		for _, in := range th {
			ops[in.Op] = true
		}
	}
	const maxDomain = 64
	for round := 0; round < 4; round++ {
		vals := keys(set)
		if len(set) > maxDomain {
			break
		}
		for _, a := range vals {
			for _, b := range vals {
				if ops[isa.OpAdd] {
					addInt(a + b)
				}
				if ops[isa.OpXor] {
					addInt(a ^ b)
				}
				if ops[isa.OpAnd] {
					addInt(a & b)
				}
				if len(set) > maxDomain {
					break
				}
			}
		}
	}
	out := keys(set)
	sort.Ints(out)
	// Drop address-range values unless addresses can be stored to memory.
	if !p.isAddrDomain() {
		filtered := out[:0]
		for _, v := range out {
			if v < addrBase || v >= addrBase+len(p.locs) {
				filtered = append(filtered, v)
			}
		}
		out = filtered
	}
	return out
}

func addCondInts(c litmus.Cond, p *Program, set map[int]bool) {
	switch c := c.(type) {
	case *litmus.AtomReg:
		if enc, err := p.encode(c.Val); err == nil {
			set[enc] = true
		}
	case *litmus.AtomMem:
		if enc, err := p.encode(c.Val); err == nil {
			set[enc] = true
		}
	case *litmus.And:
		addCondInts(c.L, p, set)
		addCondInts(c.R, p, set)
	case *litmus.Or:
		addCondInts(c.L, p, set)
		addCondInts(c.R, p, set)
	case *litmus.Not:
		addCondInts(c.X, p, set)
	}
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Trace is one control-flow semantics of a single thread (Sec. 3): its
// events with thread-local IDs, the builder's edge lists, and the final
// register file. Values are concrete; the enumeration over traces is the
// enumeration over read-value assignments.
type Trace struct {
	Events    []events.Event
	IICO      [][2]int
	IICOAddr  [][2]int
	IICOData  [][2]int
	RFReg     [][2]int
	FinalRegs map[string]int
}

// ThreadTraces enumerates the traces of one thread over the value domain.
func (p *Program) ThreadTraces(tid int) ([]Trace, error) {
	ts, _, err := p.threadTraces(&search{ctx: context.Background()}, tid)
	return ts, err
}

// threadTraces is ThreadTraces under a search: the recursion polls the
// search's cancellation state, and MaxTracesPerThread truncates the result
// (reported via the second return, not an error — the truncated trace set
// still yields a sound partial candidate space).
func (p *Program) threadTraces(s *search, tid int) ([]Trace, bool, error) {
	regInit := map[string]int{}
	for k, v := range p.Test.RegInit {
		if k.Tid != tid {
			continue
		}
		enc, err := p.encode(v)
		if err != nil {
			return nil, false, err
		}
		regInit[k.Reg] = enc
	}

	var out []Trace
	truncated := false
	// vals is the read-value vector under construction; position i holds
	// the value of the i-th dynamic read of the thread.
	var vals []int
	var rec func() error
	rec = func() error {
		if !s.alive(false) {
			return nil
		}
		if s.b.MaxTracesPerThread > 0 && len(out) >= s.b.MaxTracesPerThread {
			truncated = true
			return nil
		}
		b := &isa.Builder{}
		idx := 0
		needMore := false
		env := isa.Env{
			LocOf: p.locOf,
			ReadVal: func(string) (int, bool) {
				if idx < len(vals) {
					v := vals[idx]
					idx++
					return v, true
				}
				needMore = true
				return 0, false
			},
		}
		final, err := isa.Run(b, tid, p.Threads[tid], regInit, env)
		if err == nil {
			out = append(out, Trace{
				Events:    b.Events,
				IICO:      b.IICO,
				IICOAddr:  b.IICOAddr,
				IICOData:  b.IICOData,
				RFReg:     b.RFReg,
				FinalRegs: final,
			})
			return nil
		}
		if err != isa.ErrInfeasible || !needMore {
			return err
		}
		// The trace needs one more read value: extend the vector.
		for _, v := range p.domain {
			vals = append(vals, v)
			if err := rec(); err != nil {
				return err
			}
			vals = vals[:len(vals)-1]
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, false, err
	}
	return out, truncated, nil
}

// Candidates collects every candidate execution of a test (convenience).
// Each candidate is cloned out of the search's arena slot, so the returned
// slice stays valid indefinitely.
func Candidates(t *litmus.Test) ([]*Candidate, error) {
	p, err := Compile(t)
	if err != nil {
		return nil, err
	}
	var out []*Candidate
	err = p.Search(context.Background(), Request{}, func(c *Candidate) bool {
		out = append(out, c.Clone())
		return true
	})
	return out, err
}

// Request gathers every knob of one enumeration, the argument of
// Program.Search, the single entry point. The zero value enumerates
// unpruned, unbudgeted and uninstrumented.
type Request struct {
	// Budget bounds the search (see Budget); the zero value is unlimited.
	Budget Budget

	// Prune sets the early SC-per-location pruning level. Only enable a
	// level the downstream checker has declared sound (see Prune); the
	// default PruneNone reproduces the full candidate space.
	Prune Prune

	// Obs, when non-nil, receives the enumeration counters: candidates
	// yielded, subtrees rejected by pruning and skeletons assembled.
	// Counters are accumulated privately and flushed once per search, so
	// the hot walk stays free of atomics; a nil sink costs one branch.
	Obs *obs.EnumStats

	// PruneStats, when non-nil, additionally receives the pruned-subtree
	// count into a process-lifetime monotone counter (see PruneStats).
	// Like Obs it is flushed once per search, never from the hot walk.
	PruneStats *PruneStats
}

// Search enumerates every candidate execution of the compiled program
// under req, handing each to yield (return false to stop early). The
// search stops as soon as ctx is canceled (within one yield) or a Budget
// bound trips, returning an error matching ErrCanceled or
// ErrBudgetExceeded.
//
// Candidates are delivered zero-copy: each *Candidate lives in the
// search's reusable arena slot and is valid only for the duration of its
// yield call. Consume it in place, or take Candidate.Clone to retain it.
func (p *Program) Search(ctx context.Context, req Request, yield func(*Candidate) bool) error {
	s := newSearch(ctx, req.Budget, yield)
	defer s.flush(req.Obs, req.PruneStats)
	if !s.alive(true) { // already canceled or expired before the search starts
		return s.err
	}
	allTraces, truncated, err := p.allTraces(s)
	if err != nil {
		return err
	}
	if s.err != nil {
		return s.err
	}

	init, err := p.initValues()
	if err != nil {
		return err
	}
	p.feedableProduct(s, init, allTraces, func(_ []int, chosen []*Trace) {
		s.skeletons++
		newWalker(p.newExpansion(init, chosen), s, req.Prune).walk(0)
	})
	if s.err != nil {
		return s.err
	}
	if truncated {
		return &LimitError{Limit: "traces", Max: req.Budget.MaxTracesPerThread, Candidates: s.cands}
	}
	return nil
}

// allTraces enumerates every thread's traces under the search's budget.
func (p *Program) allTraces(s *search) (traces [][]Trace, truncated bool, err error) {
	traces = make([][]Trace, len(p.Threads))
	for tid := range p.Threads {
		ts, trunc, err := p.threadTraces(s, tid)
		if err != nil {
			return nil, false, err
		}
		if s.err != nil {
			return traces, truncated, nil
		}
		if len(ts) == 0 {
			return nil, false, errNoTrace(tid)
		}
		traces[tid] = ts
		truncated = truncated || trunc
	}
	return traces, truncated, nil
}
