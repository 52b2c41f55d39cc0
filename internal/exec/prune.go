package exec

import "sync/atomic"

// PruneStats counts the decision subtrees rejected by early pruning,
// aggregated across any number of searches. Unlike obs.EnumStats — which
// one enumeration flushes and a caller reads back per run — PruneStats is
// a monotone process-lifetime counter, suitable for export as a
// Prometheus-style metric (the herdd /metrics endpoint surfaces it as
// enum_pruned_subtrees_total). Searches accumulate privately and flush
// once, so the counter costs one atomic add per search, not per prune. A
// nil *PruneStats is a valid no-op sink.
type PruneStats struct {
	subtrees atomic.Int64
}

// AddSubtrees adds n rejected subtrees to the counter. Safe on nil.
func (p *PruneStats) AddSubtrees(n int64) {
	if p == nil || n == 0 {
		return
	}
	p.subtrees.Add(n)
}

// Subtrees returns the total rejected subtrees. Safe on nil (returns 0).
func (p *PruneStats) Subtrees() int64 {
	if p == nil {
		return 0
	}
	return p.subtrees.Load()
}

// Prune selects the level of early SC-per-location pruning applied during
// enumeration (Sec. 4.1/4.7 of the paper). The SC PER LOCATION axiom —
// acyclic(po-loc ∪ com) — is per-location by construction: every edge of
// po-loc, rf, fr and co relates two accesses of the same location, so the
// union is acyclic iff each per-location projection is. That lets the
// enumeration reject a partial rf/co assignment the moment one location's
// coherence order is fixed, instead of materialising and deriving the full
// candidate only for the model to discard it.
//
// Pruning is an optimisation contract between the enumerator and the
// checker: it is sound only for checkers that reject every candidate whose
// (possibly relaxed) po-loc ∪ com projection is cyclic. Checkers declare
// their level (see sim.PruneCapable); the default, PruneNone, reproduces
// the unpruned enumeration exactly.
//
// A pruned enumeration yields the same Valid executions, final states and
// condition verdicts as the unpruned one, but visits fewer candidates: the
// Candidates counter shrinks and uniproc violations no longer appear in
// the FailedBy histogram, because the rejected candidates are never built.
type Prune uint8

const (
	// PruneNone disables pruning: every rf/co combination is enumerated.
	PruneNone Prune = iota

	// PruneSCPerLocNoRR prunes on cycles in (po-loc \ RR(po-loc)) ∪ com:
	// read-read program-order pairs are exempt, matching models that
	// permit the load-load hazard (e.g. ARM llh, Sec. 4.7).
	PruneSCPerLocNoRR

	// PruneSCPerLoc prunes on cycles in the full po-loc ∪ com union —
	// the SC PER LOCATION axiom as stated in Sec. 4.1.
	PruneSCPerLoc
)

func (p Prune) String() string {
	switch p {
	case PruneSCPerLocNoRR:
		return "sc-per-location-llh"
	case PruneSCPerLoc:
		return "sc-per-location"
	}
	return "none"
}
