// Package core implements the generic axiomatic model of weak memory of
// "Herding cats" (Fig. 5): a candidate execution (E, po, rf, co) is valid
// for an architecture (ppo, fences, prop) iff the four axioms hold:
//
//	SC PER LOCATION  acyclic(po-loc ∪ com)
//	NO THIN AIR      acyclic(hb)            hb = ppo ∪ fences ∪ rfe
//	OBSERVATION      irreflexive(fre ; prop ; hb*)
//	PROPAGATION      acyclic(co ∪ prop)
//
// Architectures are instances of the Architecture interface; package models
// provides SC, TSO, C++ R-A, Power and the ARM variants of Tab. VII.
//
// Options carries the documented weakenings of Sec. 4.8–4.9: allowing
// load-load hazards (dropping read-read pairs from po-loc, Sparc RMO and the
// "ARM llh" model of Tab. VII), disabling NO THIN AIR (software models
// allowing lb), and the C++ R-A weakening of PROPAGATION to
// irreflexive(prop ; co).
package core

import (
	"herdcats/internal/events"
	"herdcats/internal/rel"
)

// Architecture is the triple (ppo, fences, prop) of Sec. 4.1.
// Each function receives a derived candidate execution and returns a
// relation over its events. The result may share storage with x (a fence
// relation, say), so callers treat it as read-only.
type Architecture interface {
	// Name identifies the architecture, e.g. "Power".
	Name() string
	// PPO returns the preserved program order.
	PPO(x *events.Execution) rel.Rel
	// Fences returns the fence relation of the model (the union of the
	// fence flavours the architecture recognises, already port-filtered,
	// e.g. lwsync \ WR on Power).
	Fences(x *events.Execution) rel.Rel
	// Prop returns the propagation order. It receives the architecture's
	// own ppo and fences (as computed by PPO and Fences) so instances can
	// build prop from hb without recomputing the ppo fixpoint — prop is
	// defined in terms of fences and hb in Fig. 18.
	Prop(x *events.Execution, ppo, fences rel.Rel) rel.Rel
}

// Checker validates one candidate execution. It is defined here, below
// the simulator, so leaf packages (models, cat) can name it without
// importing sim; sim.Checker is an alias of it.
type Checker interface {
	Name() string
	Check(x *events.Execution) Result
}

// EvaluatorProvider is implemented by checkers that can supply a stateful
// per-search evaluator — compiled cat models, whose evaluator owns an arena
// of pooled relation buffers, so steady-state checking allocates nothing.
// The native models of package models are plain checkers and do not
// implement it. sim.Simulate asks for one evaluator per search and calls
// its Check from a single goroutine; the provider itself must stay safe
// for concurrent use (it is shared through caches), and each evaluator
// must be independent. A nil evaluator tells the caller to fall back to
// the provider's own Check.
type EvaluatorProvider interface {
	NewEvaluator() Checker
}

// Axiom names one of the four checks of Fig. 5.
type Axiom uint8

// The four axioms, in the paper's order.
const (
	SCPerLocation Axiom = iota
	NoThinAir
	Observation
	Propagation
)

// String returns the paper's name for the axiom.
func (a Axiom) String() string {
	switch a {
	case SCPerLocation:
		return "SC PER LOCATION"
	case NoThinAir:
		return "NO THIN AIR"
	case Observation:
		return "OBSERVATION"
	case Propagation:
		return "PROPAGATION"
	}
	return "UNKNOWN"
}

// Options selects documented variations of the axioms (Sec. 4.8–4.9).
type Options struct {
	// AllowLoadLoadHazard drops read-read pairs from po-loc in
	// SC PER LOCATION (coRR allowed): Sparc RMO, pre-Power4, "ARM llh".
	AllowLoadLoadHazard bool
	// SkipNoThinAir disables the NO THIN AIR check (models allowing lb).
	SkipNoThinAir bool
	// WeakPropagation replaces acyclic(co ∪ prop) with
	// irreflexive(prop ; co), the C++ R-A HBVSMO-style check.
	WeakPropagation bool
}

// Result reports the outcome of checking one candidate execution.
type Result struct {
	// Valid is true iff every (enabled) axiom holds.
	Valid bool
	// Failed lists the violated axioms, in the paper's order. This is the
	// classification used by Tab. VIII (columns S, T, O, P and their
	// combinations).
	Failed []Axiom
	// FailedChecks names the violated checks. For the built-in models these
	// are the axiom names; for cat-compiled models they are the model's own
	// check names ("as ..." clauses or derived names).
	FailedChecks []string
	// Err is set when the model itself failed to evaluate on this candidate
	// (e.g. a registered cat model whose let-rec never converges). The
	// verdict then carries no information: Valid is false and the check
	// lists are empty. Callers running many candidates should abort the
	// search and surface the error rather than tallying the result.
	Err error
}

// FailedSet returns the violated axioms as a membership map.
func (r Result) FailedSet() map[Axiom]bool {
	m := make(map[Axiom]bool, len(r.Failed))
	for _, a := range r.Failed {
		m[a] = true
	}
	return m
}

// Check validates x against arch with default options.
func Check(arch Architecture, x *events.Execution) Result {
	return CheckWith(arch, x, Options{})
}

// CheckWith validates x against arch under the given axiom options.
// All four axioms are always evaluated (unless disabled) so that the result
// carries the full classification, not just the first failure.
func CheckWith(arch Architecture, x *events.Execution, opts Options) Result {
	var failed []Axiom
	if !SCPerLocationHolds(x, opts) {
		failed = append(failed, SCPerLocation)
	}

	ppo := arch.PPO(x)
	fences := arch.Fences(x)
	hb := HB(x, ppo, fences)
	if !opts.SkipNoThinAir && !hb.Acyclic() {
		failed = append(failed, NoThinAir)
	}

	prop := arch.Prop(x, ppo, fences)
	if !x.FRE.Seq(prop).Seq(hb.Star()).Irreflexive() {
		failed = append(failed, Observation)
	}

	if opts.WeakPropagation {
		if !prop.Seq(x.CO).Irreflexive() {
			failed = append(failed, Propagation)
		}
	} else if !x.CO.Union(prop).Acyclic() {
		failed = append(failed, Propagation)
	}

	names := make([]string, len(failed))
	for i, a := range failed {
		names[i] = a.String()
	}
	return Result{Valid: len(failed) == 0, Failed: failed, FailedChecks: names}
}

// SCPerLocationHolds evaluates acyclic(po-loc ∪ com), honouring the
// load-load-hazard option.
func SCPerLocationHolds(x *events.Execution, opts Options) bool {
	poloc := x.POLoc
	if opts.AllowLoadLoadHazard {
		poloc = poloc.Diff(poloc.Restrict(x.R, x.R))
	}
	return poloc.Union(x.Com).Acyclic()
}

// HB computes the happens-before relation ppo ∪ fences ∪ rfe of Sec. 4.4.
func HB(x *events.Execution, ppo, fences rel.Rel) rel.Rel {
	return ppo.Union(fences).Union(x.RFE)
}
