package exec

// Differential test for the feedability filter: over the litmus corpus,
// the combinations the search assembles are exactly the combinations of
// the unfiltered trace product whose every read has a same-location,
// same-value write, and assembling those yields the search's candidate
// stream in the same order.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"herdcats/internal/events"
	"herdcats/internal/litmus"
)

// corpusPrograms compiles every litmus file in testdata/litmus.
func corpusPrograms(t *testing.T) []*Program {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/litmus/*.litmus")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no litmus corpus: %v", err)
	}
	var out []*Program
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		test, err := litmus.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		p, err := Compile(test)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, p)
	}
	return out
}

// everyReadFed decides feedability from the events themselves, without
// footprints: every memory read has a write of its location and value
// among the initial writes and the chosen traces.
func everyReadFed(p *Program, init []int, chosen []*Trace) bool {
	fed := func(r events.Event) bool {
		if i, ok := p.locIdx[r.Loc]; ok && init[i] == r.Val {
			return true
		}
		for _, tr := range chosen {
			for _, w := range tr.Events {
				if w.Kind == events.MemWrite && w.Loc == r.Loc && w.Val == r.Val {
					return true
				}
			}
		}
		return false
	}
	for _, tr := range chosen {
		for _, e := range tr.Events {
			if e.Kind == events.MemRead && !fed(e) {
				return false
			}
		}
	}
	return true
}

// unfilteredFeedable enumerates the full trace product, thread 0
// outermost, and keeps the combinations everyReadFed accepts.
func unfilteredFeedable(p *Program, init []int, traces [][]Trace) (all int, kept [][]int) {
	choice := make([]int, len(traces))
	chosen := make([]*Trace, len(traces))
	var product func(tid int)
	product = func(tid int) {
		if tid == len(traces) {
			all++
			if everyReadFed(p, init, chosen) {
				kept = append(kept, append([]int(nil), choice...))
			}
			return
		}
		for i := range traces[tid] {
			choice[tid], chosen[tid] = i, &traces[tid][i]
			product(tid + 1)
		}
	}
	product(0)
	return all, kept
}

// candidateKey renders everything a candidate carries: events, po, iico,
// rf-reg, rf, co, dependencies, fences and the final state.
func candidateKey(c *Candidate) string {
	x := c.X
	var b strings.Builder
	fmt.Fprintf(&b, "events=%v po=%v iico=%v rfreg=%v rf=%v co=%v addr=%v data=%v ctrl=%v",
		x.Events, x.PO.Pairs(), x.IICO.Pairs(), x.RFReg.Pairs(), x.RF.Pairs(), x.CO.Pairs(),
		x.Addr.Pairs(), x.Data.Pairs(), x.Ctrl.Pairs())
	var kinds []string
	for k := range x.FenceRel {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%v", k, x.FenceRel[events.FenceKind(k)].Pairs())
	}
	fmt.Fprintf(&b, " state{%s}", c.State.Key(nil))
	return b.String()
}

// filterCounts are the sizes checkFeedableProduct reports for one test:
// traces before and after feedableTraces, combinations of the unfiltered
// product, and combinations assembled.
type filterCounts struct{ traces, feedable, combos, assembled int }

func (c *filterCounts) add(o filterCounts) {
	c.traces += o.traces
	c.feedable += o.feedable
	c.combos += o.combos
	c.assembled += o.assembled
}

// checkFeedableProduct asserts that the combinations p's search assembles
// are the feedable ones of the unfiltered product, in product order, and
// that assembling those reproduces the search's candidate stream.
func checkFeedableProduct(t *testing.T, p *Program) filterCounts {
	t.Helper()
	name := p.Test.Name
	s := newSearch(context.Background(), Budget{}, nil)
	all, _, err := p.allTraces(s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	init, err := p.initValues()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var c filterCounts
	for tid, keep := range feedableTraces(p.footprints(init, all)) {
		c.traces += len(all[tid])
		c.feedable += len(keep)
	}
	var want [][]int
	c.combos, want = unfilteredFeedable(p, init, all)
	var got [][]int
	p.feedableProduct(s, init, all, func(choice []int, _ []*Trace) {
		got = append(got, append([]int(nil), choice...))
	})
	c.assembled = len(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: assembled combinations %v, want the feedable ones of the unfiltered product %v", name, got, want)
		return c
	}

	// The reference stream: every feedable combination of the unfiltered
	// product, assembled and walked in product order.
	var ref []string
	rs := newSearch(context.Background(), Budget{}, func(c *Candidate) bool {
		ref = append(ref, candidateKey(c))
		return true
	})
	chosen := make([]*Trace, len(all))
	for _, choice := range want {
		for tid, i := range choice {
			chosen[tid] = &all[tid][i]
		}
		newWalker(p.newExpansion(init, chosen), rs, PruneNone).walk(0)
	}
	var stream []string
	if err := p.Search(context.Background(), Request{}, func(c *Candidate) bool {
		stream = append(stream, candidateKey(c))
		return true
	}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(stream, ref) {
		t.Errorf("%s: candidate stream (%d) differs from the unfiltered reference (%d)", name, len(stream), len(ref))
	}
	return c
}

func TestFeedableProductMatchesUnfiltered(t *testing.T) {
	var corpus filterCounts
	for _, p := range corpusPrograms(t) {
		corpus.add(checkFeedableProduct(t, p))
	}
	t.Logf("corpus: traces %d -> %d feedable, combinations %d -> %d assembled",
		corpus.traces, corpus.feedable, corpus.combos, corpus.assembled)
	// The corpus figures behind the filter: over half of the unfiltered
	// combinations had a read no write could feed.
	if want := (filterCounts{599, 387, 865, 397}); corpus != want {
		t.Errorf("corpus: %+v, want %+v", corpus, want)
	}

	// Two shapes the corpus lacks. In cascade, P1 copies y to x and
	// nothing writes y=1, so P1's y=1 trace goes, and with it the only
	// writer of x=1 that P0's x=1 trace had: dropping one trace starves
	// another, found only by a second pass. In perpair, every trace has a
	// possible feeder, but P0 reading x=1 next to P1 copying y=0 has none:
	// only the per-combination check rejects it.
	for _, c := range []struct {
		src  string
		want filterCounts
	}{
		{`PPC cascade
{ 0:r1=x; 1:r1=x; 1:r2=y; }
 P0 | P1 ;
 lwz r5,0(r1) | lwz r6,0(r2) ;
 | stw r6,0(r1) ;
exists (0:r5=1)`, filterCounts{4, 2, 4, 1}},
		{`PPC perpair
{ 0:r1=x; 0:r2=y; 1:r1=x; 1:r2=y; }
 P0 | P1 ;
 li r4,1 | lwz r6,0(r2) ;
 stw r4,0(r2) | stw r6,0(r1) ;
 lwz r5,0(r1) | ;
exists (0:r5=1)`, filterCounts{4, 4, 4, 3}},
	} {
		p, err := Compile(litmus.MustParse(c.src))
		if err != nil {
			t.Fatal(err)
		}
		if got := checkFeedableProduct(t, p); got != c.want {
			t.Errorf("%s: %+v, want %+v", p.Test.Name, got, c.want)
		}
	}
}
