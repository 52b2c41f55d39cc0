package sim_test

import (
	"context"
	"reflect"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/models"
	"herdcats/internal/sim"
)

// TestPruneLevelFor checks the capability plumbing: framework models and
// cat-compiled models declare a level, and an anonymous checker without the
// interface stays unpruned.
func TestPruneLevelFor(t *testing.T) {
	if lv := sim.PruneLevelFor(models.Power); lv != exec.PruneSCPerLoc {
		t.Errorf("Power: %v, want full prune", lv)
	}
	if lv := sim.PruneLevelFor(models.ARMllh); lv != exec.PruneSCPerLocNoRR {
		t.Errorf("ARM llh: %v, want NoRR prune", lv)
	}
	m, err := cat.Builtin("arm-llh")
	if err != nil {
		t.Fatal(err)
	}
	if lv := sim.PruneLevelFor(m); lv != exec.PruneSCPerLocNoRR {
		t.Errorf("cat arm-llh: %v, want NoRR prune", lv)
	}
	if lv := sim.PruneLevelFor(plainChecker{models.SC}); lv != exec.PruneNone {
		t.Errorf("non-capable checker: %v, want none", lv)
	}
}

// plainChecker wraps a model while hiding its PruneCapable implementation.
type plainChecker struct{ m models.Model }

func (p plainChecker) Name() string { return p.m.Name() }
func (p plainChecker) Check(x *events.Execution) core.Result {
	return p.m.Check(x)
}

// TestPruneVerdictInvariant: for every catalog test and model, the pruned
// run preserves Valid, States, CondObserved and OK; only Candidates may
// shrink (and never grow).
func TestPruneVerdictInvariant(t *testing.T) {
	checkers := []sim.Checker{models.SC, models.TSO, models.Power, models.ARM, models.ARMllh}
	for _, e := range catalog.Tests() {
		test := e.Test()
		for _, m := range checkers {
			plain, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: m})
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, m.Name(), err)
			}
			pruned, err := sim.Simulate(context.Background(), sim.Request{
				Test: test, Checker: m,
				Options: sim.Options{Prune: true},
			})
			if err != nil {
				t.Fatalf("%s/%s pruned: %v", e.Name, m.Name(), err)
			}
			if pruned.Valid != plain.Valid ||
				pruned.CondObserved != plain.CondObserved ||
				pruned.OK() != plain.OK() ||
				!reflect.DeepEqual(pruned.States, plain.States) {
				t.Errorf("%s/%s: pruned verdict differs:\nplain  %+v\npruned %+v",
					e.Name, m.Name(), plain, pruned)
			}
			if pruned.Candidates > plain.Candidates {
				t.Errorf("%s/%s: pruning grew the candidate count %d -> %d",
					e.Name, m.Name(), plain.Candidates, pruned.Candidates)
			}
		}
	}
}
