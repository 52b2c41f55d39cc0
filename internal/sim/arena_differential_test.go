package sim_test

// Differential test for the zero-copy enumeration: the simulator consumes
// candidates in place out of the search's arena slot; the reference below
// follows the legacy clone-always ownership discipline (retain a deep copy
// of every candidate, tally only after the enumeration has finished, when
// the slot has been overwritten many times). The two must produce
// byte-identical OutcomeJSON.

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/sim"
)

// cloneAlwaysOutcome tallies a test/model pair from retained clones,
// assembling the deterministic wire form the way Outcome.JSON does.
func cloneAlwaysOutcome(t *testing.T, p *exec.Program, test *litmus.Test, m sim.Checker) sim.OutcomeJSON {
	t.Helper()
	var cands []*exec.Candidate
	err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		cands = append(cands, c.Clone())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	valid, violations := 0, 0
	condObserved := false
	states := map[string]int{}
	failed := map[string]int{}
	for _, c := range cands {
		res := m.Check(c.X)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.Valid {
			for _, name := range res.FailedChecks {
				failed[name]++
			}
			continue
		}
		valid++
		states[c.State.Key(test.Cond)]++
		if test.Cond == nil || test.Cond.Eval(c.State) {
			condObserved = true
		} else {
			violations++
		}
	}
	sc := make([]sim.StateCount, 0, len(states))
	for k, n := range states {
		sc = append(sc, sim.StateCount{State: k, Count: n})
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].State < sc[j].State })
	fc := make([]sim.CheckCount, 0, len(failed))
	for k, n := range failed {
		fc = append(fc, sim.CheckCount{Check: k, Count: n})
	}
	sort.Slice(fc, func(i, j int) bool { return fc[i].Check < fc[j].Check })
	ok := false
	switch test.Quant {
	case litmus.Exists:
		ok = condObserved
	case litmus.NotExists:
		ok = !condObserved
	case litmus.ForAll:
		ok = valid > 0 && violations == 0
	}
	return sim.OutcomeJSON{
		Test: test.Name, Quantifier: test.Quant.String(), Model: m.Name(),
		Candidates: len(cands), Valid: valid, States: sc, FailedBy: fc,
		Allowed: condObserved, OK: ok,
	}
}

// TestOutcomeJSONCloneAlwaysDifferential: arena path vs clone-always
// reference, byte-identical, for every catalog test under two models.
func TestOutcomeJSONCloneAlwaysDifferential(t *testing.T) {
	checkers := []sim.Checker{models.TSO, models.Power}
	for _, e := range catalog.Tests() {
		test := e.Test()
		p, err := exec.Compile(test)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, m := range checkers {
			want, err := json.Marshal(cloneAlwaysOutcome(t, p, test, m))
			if err != nil {
				t.Fatal(err)
			}
			out, err := sim.Simulate(context.Background(), sim.Request{Program: p, Checker: m})
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, m.Name(), err)
			}
			got, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: arena outcome diverges from clone-always reference\nwant %s\ngot  %s",
					e.Name, m.Name(), want, got)
			}
		}
	}
}
