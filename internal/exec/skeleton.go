package exec

import (
	"fmt"

	"herdcats/internal/events"
	"herdcats/internal/litmus"
	"herdcats/internal/rel"
)

// Assembled is the global event structure for one trace choice per thread,
// before any data-flow (rf and co are empty): the control-flow skeleton
// used by the symbolic encodings of package bmc.
type Assembled struct {
	X *events.Execution
	// ThreadOf and LocalIdx map a global event ID back to its thread and
	// its index within the thread's trace (-1 for initial writes).
	ThreadOf []int
	LocalIdx []int
	// FinalRegs is the register file of the chosen traces.
	FinalRegs map[litmus.RegKey]litmus.Value
}

// Assemble builds the global event structure for one trace per thread.
// The returned execution is derived, with empty rf and co.
func (p *Program) Assemble(traces []Trace) (*Assembled, error) {
	if len(traces) != len(p.Threads) {
		return nil, fmt.Errorf("exec: Assemble needs %d traces, got %d", len(p.Threads), len(traces))
	}
	init, err := p.initValues()
	if err != nil {
		return nil, err
	}
	chosen := make([]*Trace, len(traces))
	for tid := range traces {
		chosen[tid] = &traces[tid]
	}
	x, finalRegs := p.skeleton(init, chosen)
	threadOf := make([]int, len(x.Events))
	localIdx := make([]int, len(x.Events))
	for id := range p.locs {
		threadOf[id], localIdx[id] = events.InitTid, -1
	}
	id := len(p.locs)
	for tid, tr := range chosen {
		for li := range tr.Events {
			threadOf[id], localIdx[id] = tid, li
			id++
		}
	}
	x.Derive()
	return &Assembled{X: x, ThreadOf: threadOf, LocalIdx: localIdx, FinalRegs: finalRegs}, nil
}

// initValues returns the encoded initial value of every location, in
// Program.locs order.
func (p *Program) initValues() ([]int, error) {
	init := make([]int, len(p.locs))
	for i, loc := range p.locs {
		v, err := p.encode(p.Test.MemInit[loc])
		if err != nil {
			return nil, err
		}
		init[i] = v
	}
	return init, nil
}

// skeleton lays out the events of one trace per thread: the initial writes
// first (one per location, values init), then each thread's events as one
// contiguous block with its IDs shifted. iico, rf-reg and po are built; rf
// and co are left empty and nothing is derived. It also returns the final
// register file of the chosen traces.
func (p *Program) skeleton(init []int, traces []*Trace) (*events.Execution, map[litmus.RegKey]litmus.Value) {
	n, regs := len(p.locs), 0
	for _, tr := range traces {
		n += len(tr.Events)
		regs += len(tr.FinalRegs)
	}
	evs := make([]events.Event, 0, n)
	for i, loc := range p.locs {
		evs = append(evs, events.Event{
			ID: i, Tid: events.InitTid, PC: -1,
			Kind: events.MemWrite, Loc: loc, Val: init[i],
		})
	}
	x := events.NewExecution(n)
	finalRegs := make(map[litmus.RegKey]litmus.Value, regs)
	for tid, tr := range traces {
		off := len(evs)
		for _, e := range tr.Events {
			e.ID += off
			evs = append(evs, e)
		}
		addShifted(x.IICO, tr.IICO, off)
		addShifted(x.IICOAddr, tr.IICOAddr, off)
		addShifted(x.IICOData, tr.IICOData, off)
		addShifted(x.RFReg, tr.RFReg, off)
		for r, v := range tr.FinalRegs {
			finalRegs[litmus.RegKey{Tid: tid, Reg: r}] = p.Decode(v)
		}
		// Program order: within the thread's block, strictly increasing PC.
		blk := evs[off:]
		for i := range blk {
			for j := range blk {
				if blk[i].PC < blk[j].PC {
					x.PO.Add(off+i, off+j)
				}
			}
		}
	}
	x.Events = evs
	return x, finalRegs
}

// addShifted adds a trace's thread-local edges to r, shifted by off.
func addShifted(r rel.Rel, edges [][2]int, off int) {
	for _, e := range edges {
		r.Add(e[0]+off, e[1]+off)
	}
}
