package exec

import (
	"slices"

	"herdcats/internal/events"
)

// A memory read can only be fed by a write of its location and value
// (Sec. 3): its rf candidates are exactly the same-location, same-value
// writes among the initial writes and the chosen traces of every thread,
// its own included. A trace combination in which some read has no such
// write yields no candidate, so the search never assembles one. It drops
// them in two steps, both before any skeleton is built:
//
//  1. feedableTraces removes every trace that has a read no write can feed
//     in any combination, repeating until no trace is removed;
//  2. feeds checks each remaining combination exactly, without
//     allocating.
//
// Both steps only remove combinations, and the product runs over the
// surviving traces in their original order, so the combinations assembled
// and the candidate stream are those of the unfiltered product.

// access is a memory access as its (location, encoded value) pair.
type access struct {
	loc string
	val int
}

// footprint is the memory side of one trace: its reads that the initial
// writes cannot feed, and its writes.
type footprint struct{ reads, writes []access }

// footprints computes the footprint of every trace, given the initial
// value of every location. All of them share one backing array.
func (p *Program) footprints(init []int, traces [][]Trace) [][]footprint {
	mem := 0
	for _, ts := range traces {
		for i := range ts {
			mem += len(ts[i].Events)
		}
	}
	buf := make([]access, 0, mem)
	fps := make([][]footprint, len(traces))
	for tid, ts := range traces {
		fps[tid] = make([]footprint, len(ts))
		for i := range ts {
			start := len(buf)
			for _, e := range ts[i].Events {
				if e.Kind != events.MemRead {
					continue
				}
				if li, ok := p.locIdx[e.Loc]; !ok || init[li] != e.Val {
					buf = append(buf, access{e.Loc, e.Val})
				}
			}
			mid := len(buf)
			for _, e := range ts[i].Events {
				if e.Kind == events.MemWrite {
					buf = append(buf, access{e.Loc, e.Val})
				}
			}
			fps[tid][i] = footprint{reads: buf[start:mid:mid], writes: buf[mid:len(buf):len(buf)]}
		}
	}
	return fps
}

// feedableTraces returns, per thread, the indices in ascending order of the
// traces whose every read can be fed: by the initial write (footprints
// leave those reads out), by a write of the trace itself, or by a write of
// a surviving trace of another thread. Dropping a trace can starve another
// thread's reads, so the pass repeats until nothing changes. A thread may
// end up with no trace; the product over it is then empty.
//
// Each pass first collects every thread's distinct writes over its
// surviving traces, so a pass costs time linear in the number of traces
// rather than quadratic. A trace dropped during a pass still counts as a
// feeder until the next one; that only delays a drop by a pass, and the
// last pass, which drops nothing, checks against the survivors exactly.
func feedableTraces(fps [][]footprint) [][]int {
	keep := make([][]int, len(fps))
	for tid := range fps {
		keep[tid] = make([]int, len(fps[tid]))
		for i := range keep[tid] {
			keep[tid][i] = i
		}
	}
	written := make([][]access, len(fps))
	fedElsewhere := func(tid int, r access) bool {
		for u, ws := range written {
			if u != tid && slices.Contains(ws, r) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for u := range fps {
			written[u] = written[u][:0]
			for _, i := range keep[u] {
				for _, w := range fps[u][i].writes {
					if !slices.Contains(written[u], w) {
						written[u] = append(written[u], w)
					}
				}
			}
		}
		for tid := range fps {
			kept := keep[tid][:0]
			for _, i := range keep[tid] {
				fp := fps[tid][i]
				ok := true
				for _, r := range fp.reads {
					if !slices.Contains(fp.writes, r) && !fedElsewhere(tid, r) {
						ok = false
						break
					}
				}
				if ok {
					kept = append(kept, i)
				}
			}
			changed = changed || len(kept) < len(keep[tid])
			keep[tid] = kept
		}
	}
	return keep
}

// feeds reports whether every read of the combination choice (one trace
// index per thread) that the initial writes cannot feed has a
// same-location, same-value write among the chosen traces.
func feeds(fps [][]footprint, choice []int) bool {
	for tid, i := range choice {
		for _, r := range fps[tid][i].reads {
			fed := false
			for u, j := range choice {
				if slices.Contains(fps[u][j].writes, r) {
					fed = true
					break
				}
			}
			if !fed {
				return false
			}
		}
	}
	return true
}

// feedableProduct calls visit with each combination of one trace per
// thread whose every read can be fed, both as trace indices (choice) and
// as traces (chosen), thread 0 outermost: the order of the unfiltered
// Cartesian product, restricted. Both slices are reused between calls.
// It stops early once the search stops.
func (p *Program) feedableProduct(s *search, init []int, traces [][]Trace, visit func(choice []int, chosen []*Trace)) {
	fps := p.footprints(init, traces)
	keep := feedableTraces(fps)
	choice := make([]int, len(traces))
	chosen := make([]*Trace, len(traces))
	var product func(tid int)
	product = func(tid int) {
		if !s.alive(false) {
			return
		}
		if tid == len(traces) {
			if feeds(fps, choice) {
				for t, i := range choice {
					chosen[t] = &traces[t][i]
				}
				visit(choice, chosen)
			}
			return
		}
		for _, i := range keep[tid] {
			choice[tid] = i
			product(tid + 1)
		}
	}
	product(0)
}
