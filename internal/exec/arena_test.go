package exec_test

// Tests for the zero-copy yield contract: candidates live in the search's
// reusable arena slot, and Clone produces standalone copies whose content
// is identical to the in-place view.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/exec"
)

// dynFingerprint renders a candidate including every derived dynamic
// relation, so a clone that shares (or mis-copies) any buffer with the
// arena slot diverges from the in-place rendering.
func dynFingerprint(c *exec.Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state{%s}", c.State.Key(nil))
	fmt.Fprintf(&b, " rf=%v co=%v fr=%v com=%v sw=%v", c.X.RF.Pairs(), c.X.CO.Pairs(),
		c.X.FR.Pairs(), c.X.Com.Pairs(), c.X.SW.Pairs())
	fmt.Fprintf(&b, " rfe=%v rfi=%v coe=%v coi=%v fre=%v fri=%v",
		c.X.RFE.Pairs(), c.X.RFI.Pairs(), c.X.COE.Pairs(), c.X.COI.Pairs(),
		c.X.FRE.Pairs(), c.X.FRI.Pairs())
	return b.String()
}

// TestCloneMatchesInPlace: over the whole catalog, cloning every candidate
// at yield time and reading the clones after the search reproduces exactly
// the in-place per-candidate view — even though the arena slot behind the
// originals has been overwritten thousands of times since.
func TestCloneMatchesInPlace(t *testing.T) {
	for _, e := range catalog.Tests() {
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		var inPlace []string
		var clones []*exec.Candidate
		err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			inPlace = append(inPlace, dynFingerprint(c))
			clones = append(clones, c.Clone())
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(clones) == 0 {
			t.Fatalf("%s: no candidates", e.Name)
		}
		for i, c := range clones {
			if got := dynFingerprint(c); got != inPlace[i] {
				t.Errorf("%s: candidate %d: clone diverges from in-place view\nin-place %s\nclone    %s",
					e.Name, i, inPlace[i], got)
			}
		}
	}
}
