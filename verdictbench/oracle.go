package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"herdcats/internal/campaign"
	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/sim"
	"herdcats/internal/wire"
)

// pair is one verdict to ask for: a litmus source under a built-in model.
type pair struct {
	src   string
	model string
}

// reference is the expected verdict of a pair, computed off the clock by
// code the serving path does not run: the cat interpreter
// (Model.Interpreted), cross-checked against the paper catalogue's
// Allowed/Forbidden entry where the catalogue has one.
type reference struct {
	allowed bool
	states  []string // sorted final states of the valid executions
	byCat   bool     // the catalogue also asserts allowed
}

// buildOracle computes the reference of every distinct pair on workers
// goroutines. A catalogue entry that disagrees with the interpreter is an
// error: the reference itself would be in doubt.
func buildOracle(ctx context.Context, pairs []pair, workers int) (map[pair]reference, error) {
	expect := map[string]map[string]bool{} // canonical test → model name → allowed
	for _, e := range catalog.Tests() {
		t, err := litmus.Parse(e.Source)
		if err != nil {
			return nil, fmt.Errorf("catalogue %s: %w", e.Name, err)
		}
		expect[memo.CanonicalTest(t)] = e.Expect
	}

	refs := make(map[pair]reference, len(pairs))
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	next := make(chan pair)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				ref, err := interpret(ctx, p, expect)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				refs[p] = ref
				mu.Unlock()
			}
		}()
	}
	seen := map[pair]bool{}
	for _, p := range pairs {
		if !seen[p] {
			seen[p] = true
			next <- p
		}
	}
	close(next)
	wg.Wait()
	return refs, first
}

func interpret(ctx context.Context, p pair, expect map[string]map[string]bool) (reference, error) {
	t, err := litmus.Parse(p.src)
	if err != nil {
		return reference{}, err
	}
	m, err := cat.Builtin(p.model)
	if err != nil {
		return reference{}, err
	}
	out, err := sim.Simulate(ctx, sim.Request{Test: t, Checker: m.Interpreted()})
	if err != nil {
		return reference{}, fmt.Errorf("reference %s under %s: %w", t.Name, p.model, err)
	}
	if out.Incomplete {
		return reference{}, fmt.Errorf("reference %s under %s: incomplete", t.Name, p.model)
	}
	ref := reference{allowed: out.Allowed(), states: stateSet(out.States)}
	if want, ok := expect[memo.CanonicalTest(t)][m.Name()]; ok {
		if want != ref.allowed {
			return ref, fmt.Errorf("reference %s under %s: interpreter says allowed=%v, catalogue says %v",
				t.Name, p.model, ref.allowed, want)
		}
		ref.byCat = true
	}
	return ref, nil
}

func stateSet(states map[string]int) []string {
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkRun compares a /v1/run reply with the reference.
func checkRun(resp *wire.RunResponse, ref reference) error {
	want := "Forbidden"
	if ref.allowed {
		want = "Allowed"
	}
	if resp.Verdict != want {
		return fmt.Errorf("verdict %s, want %s", resp.Verdict, want)
	}
	got := make([]string, len(resp.Outcome.States))
	for i, s := range resp.Outcome.States {
		got[i] = s.State
	}
	sort.Strings(got)
	return sameStates(got, ref.states)
}

// checkResult compares a streamed result/v1 row with the reference.
func checkResult(res campaign.JobResult, ref reference) error {
	want := campaign.StatusForbidden
	if ref.allowed {
		want = campaign.StatusOK
	}
	if res.Status != want {
		return fmt.Errorf("status %s, want %s", res.Status, want)
	}
	return sameStates(stateSet(res.States), ref.states)
}

func sameStates(got, want []string) error {
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return fmt.Errorf("final states %q, want %q", got, want)
	}
	return nil
}
