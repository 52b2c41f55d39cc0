package exec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"herdcats/internal/core"
	"herdcats/internal/exec"
)

// fingerprint renders a candidate deterministically: final state plus the
// rf and co edge lists. Two candidates with equal fingerprints are the
// same execution, so comparing fingerprint sequences compares streams.
func fingerprint(c *exec.Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state{%s}", c.State.Key(nil))
	fmt.Fprintf(&b, " rf=%v co=%v", c.X.RF.Pairs(), c.X.CO.Pairs())
	return b.String()
}

// stream collects the full fingerprint sequence of one enumeration.
func stream(t *testing.T, p *exec.Program, req exec.Request) ([]string, error) {
	t.Helper()
	var out []string
	err := p.Search(context.Background(), req, func(c *exec.Candidate) bool {
		out = append(out, fingerprint(c))
		return true
	})
	return out, err
}

// propertyTests are the shapes the pruning property is checked on:
// read-heavy (iriw), mixed (mp), write-only (wonly), and the write-heavy
// pathological test whose co permutations dominate.
func propertyTests(t *testing.T) map[string]*exec.Program {
	t.Helper()
	const iriwSrc = `PPC iriw
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 3:r1=y; 3:r2=x; }
 P0 | P1 | P2 | P3 ;
 li r4,1 | lwz r5,0(r1) | li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | lwz r6,0(r2) | stw r4,0(r1) | lwz r6,0(r2) ;
exists (1:r5=1 /\ 1:r6=0 /\ 3:r5=1 /\ 3:r6=0)`
	const wonlySrc = `PPC wonly
{ 0:r1=x; 0:r2=y; 1:r1=x; 1:r2=y; 2:r1=x; 2:r2=y; }
 P0 | P1 | P2 ;
 li r3,1 | li r3,2 | li r3,3 ;
 stw r3,0(r1) | stw r3,0(r1) | stw r3,0(r1) ;
 stw r3,0(r2) | stw r3,0(r2) | stw r3,0(r2) ;
exists (x=1 /\ y=2)`
	return map[string]*exec.Program{
		"mp":     compile(t, mpSrc),
		"iriw":   compile(t, iriwSrc),
		"wonly":  compile(t, wonlySrc),
		"pathom": compile(t, smallPathologicalSrc(t)),
	}
}

// smallPathologicalSrc trims the budget-test shape to a size that can be
// enumerated to completion: five same-location writes and two reads.
func smallPathologicalSrc(t *testing.T) string {
	t.Helper()
	return `PPC pathosmall
{ 0:r1=x; 1:r1=x; }
 P0 | P1 ;
 li r2,1 | li r2,4 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 li r2,2 | lwz r3,0(r1) ;
 stw r2,0(r1) | lwz r4,0(r1) ;
 li r2,3 | ;
 stw r2,0(r1) | ;
exists (1:r3=1 /\ 1:r4=2)`
}

// TestPruneSoundAndExact: the pruned enumeration yields exactly the
// candidates whose po-loc ∪ com union is acyclic — no violator survives,
// no conforming candidate is lost — in the unpruned relative order.
func TestPruneSoundAndExact(t *testing.T) {
	for name, p := range propertyTests(t) {
		t.Run(name, func(t *testing.T) {
			var kept []string
			err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
				if core.SCPerLocationHolds(c.X, core.Options{}) {
					kept = append(kept, fingerprint(c))
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := stream(t, p, exec.Request{Prune: exec.PruneSCPerLoc})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(kept) {
				t.Fatalf("pruned stream has %d candidates, want %d", len(got), len(kept))
			}
			for i := range kept {
				if got[i] != kept[i] {
					t.Fatalf("candidate %d differs", i)
				}
			}
		})
	}
}

// TestPruneNoRRKeepsHazards: under the load-load-hazard level, candidates
// whose only uniproc violation is a read-read reordering survive, and
// everything the relaxed check rejects is pruned.
func TestPruneNoRRKeepsHazards(t *testing.T) {
	// coRR: two po-adjacent reads of x observing new-then-old — the
	// classic hazard allowed by ARM llh.
	const coRRSrc = `PPC coRR
{ 0:r2=x; 1:r2=x; }
 P0 | P1 ;
 li r1,1 | lwz r3,0(r2) ;
 stw r1,0(r2) | lwz r4,0(r2) ;
exists (1:r3=1 /\ 1:r4=0)`
	p := compile(t, coRRSrc)
	var kept []string
	err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		if core.SCPerLocationHolds(c.X, core.Options{AllowLoadLoadHazard: true}) {
			kept = append(kept, fingerprint(c))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream(t, p, exec.Request{Prune: exec.PruneSCPerLocNoRR})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(kept) {
		t.Fatalf("pruned stream has %d candidates, want %d", len(got), len(kept))
	}
	for i := range kept {
		if got[i] != kept[i] {
			t.Fatalf("candidate %d differs", i)
		}
	}
	// The hazard itself must survive: some kept candidate observes r3=1, r4=0.
	hazard := false
	for _, fp := range kept {
		if strings.Contains(fp, "1:r3=1") && strings.Contains(fp, "1:r4=0") {
			hazard = true
		}
	}
	if !hazard {
		t.Fatalf("no load-load-hazard candidate survived NoRR pruning:\n%s", strings.Join(kept, "\n"))
	}

	// The full level must reject strictly more than the NoRR level here.
	full, err := stream(t, p, exec.Request{Prune: exec.PruneSCPerLoc})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) >= len(got) {
		t.Fatalf("full prune kept %d, NoRR kept %d: expected full < NoRR", len(full), len(got))
	}
}
