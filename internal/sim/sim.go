// Package sim is the single-event axiomatic simulator at the heart of herd
// (Sec. 8.3): it enumerates the candidate executions of a litmus test
// (package exec) and validates each against a model, reporting which final
// states are allowed and whether the test's condition is observable.
package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"herdcats/internal/core"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/obs"
)

// Checker validates one candidate execution: core.Checker, named here for
// the simulator's callers. models.Model and cat-compiled models both
// implement it.
type Checker = core.Checker

// PruneCapable is implemented by checkers that declare a level of early
// SC-per-location pruning as sound: the checker promises to reject every
// candidate whose per-location po-loc ∪ com projection (relaxed per the
// level) is cyclic, so the enumeration may skip building such candidates.
// models.Model and cat.Model both implement it.
type PruneCapable interface {
	PruneLevel() exec.Prune
}

// PruneLevelFor resolves the pruning level a checker declares sound, or
// PruneNone for checkers that declare nothing.
func PruneLevelFor(model Checker) exec.Prune {
	if pc, ok := model.(PruneCapable); ok {
		return pc.PruneLevel()
	}
	return exec.PruneNone
}

// Options tunes how the candidate space is enumerated. The zero value is
// unpruned.
type Options struct {
	// Prune enables early SC-per-location pruning at the level the
	// checker declares sound (PruneLevelFor); checkers declaring nothing
	// run unpruned. Pruning preserves Valid, States, CondObserved and
	// OK, but Candidates shrinks and uniproc violations disappear from
	// FailedBy: the rejected candidates are never built.
	Prune bool

	// PruneStats, when non-nil, receives the pruned-subtree count into a
	// process-lifetime monotone counter (exec.Request.PruneStats) — the
	// herdd server threads its /metrics counter through here.
	PruneStats *exec.PruneStats
}

// Request is everything one simulation needs, the argument of Simulate,
// the single entry point.
type Request struct {
	// Test is the litmus test to simulate; it is compiled on the way in.
	// Leave nil when Program carries a pre-compiled test.
	Test *litmus.Test

	// Program is an already-compiled test (exec.Compile), taking
	// precedence over Test — callers batching many models over one test
	// compile once and set only this.
	Program *exec.Program

	// Checker validates each candidate execution. Required.
	Checker Checker

	// Budget bounds the enumeration; the zero value is unlimited.
	Budget exec.Budget

	// Options tunes the enumeration (pruning).
	Options Options

	// Obs, when non-nil, records the run's phase trace (compile →
	// enumerate → axiom-check → verdict; the enumerate span includes the
	// checker time, which the check span accounts separately) and the
	// enumeration counters. A nil trace costs one branch per candidate.
	Obs *obs.Trace
}

// Simulate runs one litmus test under one model. It visits every candidate
// execution the budget allows; when the budget trips or ctx is canceled
// mid-search, the partial outcome is returned (not an error) with
// Incomplete set and Reason explaining why.
func Simulate(ctx context.Context, req Request) (*Outcome, error) {
	if req.Checker == nil {
		return nil, errors.New("sim: request needs a Checker")
	}
	p := req.Program
	if p == nil {
		if req.Test == nil {
			return nil, errors.New("sim: request needs a Test or a Program")
		}
		stop := req.Obs.Phase(obs.PhaseCompile)
		var err error
		p, err = exec.Compile(req.Test)
		stop()
		if err != nil {
			return nil, err
		}
	}
	er := exec.Request{
		Budget:     req.Budget,
		Obs:        req.Obs.Enum(),
		PruneStats: req.Options.PruneStats,
	}
	if req.Options.Prune {
		er.Prune = PruneLevelFor(req.Checker)
	}
	out := &Outcome{
		Test: p.Test, Model: req.Checker.Name(),
		States: map[string]int{}, FailedBy: map[string]int{},
	}

	// Upgrade the checker to a per-search evaluator when it offers one
	// (compiled cat models; the native models of package models are plain
	// checkers): the evaluator owns pooled relation buffers reused across
	// candidates, so the steady-state check allocates nothing. Search
	// delivers every candidate on this goroutine, so one evaluator per
	// Simulate is exactly right. Name, pruning and the outcome still come
	// from the original checker.
	check := req.Checker.Check
	if prov, ok := req.Checker.(core.EvaluatorProvider); ok {
		if ev := prov.NewEvaluator(); ev != nil {
			check = ev.Check
		}
	}

	traced := req.Obs != nil
	var checkNS int64
	var evalErr error

	// Final-state histogram scratch. With a condition present the variable
	// layout is fixed, so a StateKeyer renders each key into one reusable
	// buffer; counts go through *int cells so a warm hit costs zero
	// allocations (the string([]byte) map lookup does not materialise the
	// string, and the cell is updated through the pointer instead of a
	// rewrite of the map entry). Folded into out.States after the search.
	// A nil condition means the variable set depends on the state itself
	// (registers differ across trace choices), so no fixed layout exists
	// and State.Key stays the fallback.
	var keyer *litmus.StateKeyer
	if p.Test.Cond != nil {
		keyer = litmus.NewStateKeyer(p.Test.Cond)
	}
	stateCount := map[string]*int{}

	stopEnum := req.Obs.Phase(obs.PhaseEnumerate)
	err := p.Search(ctx, er, func(c *exec.Candidate) bool {
		out.Candidates++
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		res := check(c.X)
		if traced {
			checkNS += time.Since(t0).Nanoseconds()
		}
		if res.Err != nil {
			// The model itself failed to evaluate (e.g. a divergent let
			// rec). No verdict can be trusted; abort the search and
			// surface the error instead of tallying garbage.
			evalErr = res.Err
			return false
		}
		if !res.Valid {
			for _, name := range res.FailedChecks {
				out.FailedBy[name]++
			}
			return true
		}
		out.Valid++
		if keyer != nil {
			k := keyer.AppendKey(c.State)
			if cell, ok := stateCount[string(k)]; ok {
				*cell++
			} else {
				cell = new(int)
				*cell = 1
				stateCount[string(k)] = cell
			}
		} else {
			out.States[c.State.Key(nil)]++
		}
		sat := p.Test.Cond == nil || p.Test.Cond.Eval(c.State)
		if sat {
			out.CondObserved = true
		} else {
			out.violations++
		}
		return true
	})
	stopEnum()
	for k, cell := range stateCount {
		out.States[k] = *cell
	}
	if traced {
		req.Obs.Observe(obs.PhaseCheck, time.Duration(checkNS))
	}
	defer req.Obs.Phase(obs.PhaseVerdict)()
	if evalErr != nil {
		return nil, evalErr
	}
	if err != nil {
		if errors.Is(err, exec.ErrBudgetExceeded) || errors.Is(err, exec.ErrCanceled) {
			out.Incomplete = true
			out.Reason = err
			return out, nil
		}
		return nil, err
	}
	return out, nil
}

// Outcome summarises a simulation run of one test under one model.
type Outcome struct {
	Test  *litmus.Test
	Model string

	// Candidates is the number of candidate executions enumerated;
	// Valid counts those the model accepts.
	Candidates int
	Valid      int

	// States histograms the final states of valid executions
	// (keyed on the variables the condition mentions).
	States map[string]int

	// FailedBy histograms the checks that invalid executions violate —
	// herd's explanation of *why* a behaviour is forbidden.
	FailedBy map[string]int

	// CondObserved is true iff some valid execution satisfies the
	// test's condition.
	CondObserved bool

	// Incomplete is true when enumeration stopped before exhausting the
	// candidate space — the budget tripped or the context was canceled.
	// Counters and States then cover only the candidates visited;
	// CondObserved and the quantifier verdicts are lower bounds.
	Incomplete bool

	// Reason explains an incomplete outcome; it matches
	// exec.ErrBudgetExceeded or exec.ErrCanceled under errors.Is.
	Reason error

	// violations counts valid executions whose final state fails the
	// condition (needed for the ForAll verdict).
	violations int
}

// Allowed reports whether the condition is observable under the model —
// the paper's "allowed/forbidden" verdict for a test.
func (o *Outcome) Allowed() bool { return o.CondObserved }

// OK interprets the outcome under the test's quantifier, like the litmus
// tool's Ok/No verdict.
func (o *Outcome) OK() bool {
	switch o.Test.Quant {
	case litmus.Exists:
		return o.CondObserved
	case litmus.NotExists:
		return !o.CondObserved
	case litmus.ForAll:
		return o.Valid > 0 && o.violations == 0
	}
	return false
}

// StateCount is one row of the final-state histogram in the JSON encoding.
type StateCount struct {
	State string `json:"state"`
	Count int    `json:"count"`
}

// CheckCount is one row of the failed-check histogram in the JSON encoding.
type CheckCount struct {
	Check string `json:"check"`
	Count int    `json:"count"`
}

// OutcomeJSON is the deterministic wire form of an Outcome: histograms
// are arrays sorted by key, the error reason is its text, and the embedded
// test shrinks to its name and quantifier. It round-trips through
// encoding/json, so API clients can decode it.
type OutcomeJSON struct {
	Test       string       `json:"test"`
	Quantifier string       `json:"quantifier,omitempty"`
	Model      string       `json:"model"`
	Candidates int          `json:"candidates"`
	Valid      int          `json:"valid"`
	States     []StateCount `json:"states"`
	FailedBy   []CheckCount `json:"failed_by,omitempty"`
	Allowed    bool         `json:"allowed"`
	OK         bool         `json:"ok"`
	Incomplete bool         `json:"incomplete,omitempty"`
	Reason     string       `json:"reason,omitempty"`
}

// JSON converts the outcome to its wire form.
func (o *Outcome) JSON() OutcomeJSON {
	states := make([]StateCount, 0, len(o.States))
	for k, n := range o.States {
		states = append(states, StateCount{State: k, Count: n})
	}
	sort.Slice(states, func(i, j int) bool { return states[i].State < states[j].State })
	failed := make([]CheckCount, 0, len(o.FailedBy))
	for k, n := range o.FailedBy {
		failed = append(failed, CheckCount{Check: k, Count: n})
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].Check < failed[j].Check })

	v := OutcomeJSON{
		Model:      o.Model,
		Candidates: o.Candidates,
		Valid:      o.Valid,
		States:     states,
		FailedBy:   failed,
		Allowed:    o.Allowed(),
		Incomplete: o.Incomplete,
	}
	if o.Test != nil {
		v.Test = o.Test.Name
		v.Quantifier = o.Test.Quant.String()
		v.OK = o.OK()
	}
	if o.Reason != nil {
		v.Reason = o.Reason.Error()
	}
	return v
}

// MarshalJSON renders the outcome deterministically (see OutcomeJSON):
// identical outcomes encode to identical bytes, so API responses and
// campaign reports are diffable across runs.
func (o *Outcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.JSON())
}

// String renders the outcome in a herd-like summary.
func (o *Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Test %s %s\n", o.Test.Name, o.Test.Quant)
	fmt.Fprintf(&b, "Model %s\n", o.Model)
	keys := make([]string, 0, len(o.States))
	for k := range o.States {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "States %d\n", len(keys))
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s\n", k)
	}
	if len(o.FailedBy) > 0 {
		checks := make([]string, 0, len(o.FailedBy))
		for k := range o.FailedBy {
			checks = append(checks, k)
		}
		sort.Strings(checks)
		b.WriteString("Violations")
		for _, k := range checks {
			fmt.Fprintf(&b, " %s:%d", k, o.FailedBy[k])
		}
		b.WriteByte('\n')
	}
	if o.Incomplete {
		fmt.Fprintf(&b, "Incomplete (%v)\n", o.Reason)
	}
	verdict := "No"
	if o.OK() {
		verdict = "Ok"
	}
	fmt.Fprintf(&b, "%s (%d/%d executions valid)\n", verdict, o.Valid, o.Candidates)
	return b.String()
}
