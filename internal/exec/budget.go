package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"herdcats/internal/obs"
	"herdcats/internal/rel"
)

// The enumeration of Sec. 3 is combinatorial: read-value vectors, rf maps
// and per-location co orders multiply, and diy-generated corpora contain
// tests whose candidate space exceeds any practical bound (the paper's
// Tab. IV reports tests herd could not process). A Budget makes the search
// interruptible: enumeration stops early, reporting the structured reason.
// Candidates are delivered under the zero-copy yield contract (see
// Candidate): each is valid during its yield callback, and retained copies
// must be taken with Clone.

// ErrBudgetExceeded is the sentinel matched (with errors.Is) by every
// budget-exhaustion error returned from EnumerateCtx.
var ErrBudgetExceeded = errors.New("enumeration budget exceeded")

// ErrCanceled is the sentinel matched by errors returned when the caller's
// context is canceled mid-search.
var ErrCanceled = errors.New("enumeration canceled")

// Budget bounds one enumeration. The zero value is unlimited.
type Budget struct {
	// MaxCandidates stops the search after this many candidates have
	// been yielded (0 = unlimited). A search that stops here may or may
	// not have had more candidates to find; it is reported incomplete.
	MaxCandidates int

	// MaxTracesPerThread truncates the per-thread control-flow trace
	// enumeration (0 = unlimited). Truncation is reported as incomplete
	// after the (partial) candidate space has been enumerated.
	MaxTracesPerThread int

	// Timeout is a wall-clock bound on the whole search (0 = none).
	Timeout time.Duration
}

// Key renders the budget canonically for content-addressed caching
// (internal/memo): two budgets with equal bounds have equal keys. The
// wall-clock Timeout participates because an outcome truncated by it is a
// different (and non-reproducible) artifact from an unbounded one.
func (b Budget) Key() string {
	return fmt.Sprintf("candidates=%d;traces=%d;timeout=%d", b.MaxCandidates, b.MaxTracesPerThread, int64(b.Timeout))
}

// Unlimited reports whether the budget imposes no bound at all.
func (b Budget) Unlimited() bool {
	return b.MaxCandidates == 0 && b.MaxTracesPerThread == 0 && b.Timeout == 0
}

// Scale multiplies every finite bound by f (for retry-with-larger-budget).
// Multiplication saturates instead of wrapping: repeated scaling of a large
// bound stays at the maximum representable value, so a finite budget can
// never silently turn negative (which the enumeration would read as
// instantly exceeded) or wrap back to a small bound.
func (b Budget) Scale(f int) Budget {
	if f <= 1 {
		return b
	}
	out := b
	if b.MaxCandidates > 0 {
		out.MaxCandidates = satMul(b.MaxCandidates, f)
	}
	if b.MaxTracesPerThread > 0 {
		out.MaxTracesPerThread = satMul(b.MaxTracesPerThread, f)
	}
	if b.Timeout > 0 {
		out.Timeout = time.Duration(satMul64(int64(b.Timeout), int64(f)))
	}
	return out
}

// satMul multiplies two positive ints, saturating at math.MaxInt.
func satMul(a, f int) int {
	if a > math.MaxInt/f {
		return math.MaxInt
	}
	return a * f
}

// satMul64 multiplies two positive int64s, saturating at math.MaxInt64.
func satMul64(a, f int64) int64 {
	if a > math.MaxInt64/f {
		return math.MaxInt64
	}
	return a * f
}

// LimitError reports which bound of a Budget tripped. It matches
// ErrBudgetExceeded under errors.Is.
type LimitError struct {
	Limit      string // "candidates", "traces" or "timeout"
	Max        int    // the configured bound (0 for "timeout")
	Candidates int    // candidates yielded before the search stopped
}

func (e *LimitError) Error() string {
	if e.Limit == "timeout" {
		return fmt.Sprintf("enumeration budget exceeded: timeout after %d candidates", e.Candidates)
	}
	return fmt.Sprintf("enumeration budget exceeded: %s limit %d after %d candidates",
		e.Limit, e.Max, e.Candidates)
}

func (e *LimitError) Is(target error) bool { return target == ErrBudgetExceeded }

// CancelError reports a context cancellation observed mid-search. It
// matches ErrCanceled under errors.Is and unwraps to the context's error.
type CancelError struct {
	Cause      error
	Candidates int // candidates yielded before the search stopped
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("enumeration canceled after %d candidates: %v", e.Candidates, e.Cause)
}

func (e *CancelError) Is(target error) bool { return target == ErrCanceled }
func (e *CancelError) Unwrap() error        { return e.Cause }

// search carries the cancellation and accounting state of one EnumerateCtx
// call through the nested recursions of the candidate enumeration.
type search struct {
	ctx      context.Context
	b        Budget
	deadline time.Time // zero if no wall-clock bound
	yield    func(*Candidate) bool

	cands     int   // candidates yielded so far
	skeletons int   // trace combinations assembled
	pruned    int   // decision subtrees rejected by early pruning
	stopped   bool  // stop the recursion (user stop, budget, or cancel)
	err       error // non-nil iff stopped abnormally
	tick      uint  // throttle for the deadline/cancellation checks

	slot *candSlot // lazily-built reusable candidate arena (see expand.go)
}

// candidateSlot returns the search's candidate arena, building it on first
// use so searches that never reach a leaf (pruned away, canceled early)
// pay nothing.
func (s *search) candidateSlot() *candSlot {
	if s.slot == nil {
		s.slot = &candSlot{arena: rel.NewArena()}
	}
	return s.slot
}

// flush publishes the search's private counters to an observability sink
// and an optional prune-statistics counter. Counting privately and
// flushing once keeps the hot walk free of atomics; nil sinks make the
// whole call a branch.
func (s *search) flush(sink *obs.EnumStats, ps *PruneStats) {
	ps.AddSubtrees(int64(s.pruned))
	if sink == nil {
		return
	}
	sink.AddCandidates(s.cands)
	sink.AddPruned(s.pruned)
	sink.AddSkeletons(s.skeletons)
}

// halt stops the search abnormally, recording the reason. The first
// reason wins.
func (s *search) halt(err error) {
	if s.err == nil {
		s.err = err
	}
	s.stopped = true
}

// alive reports whether the search may continue. Cancellation and the
// wall clock are polled every 64th call to keep the inner loops cheap;
// force makes the poll unconditional (used immediately before a yield, so
// a cancellation is honoured within one candidate).
func (s *search) alive(force bool) bool {
	if s.stopped {
		return false
	}
	s.tick++
	if !force && s.tick&63 != 0 {
		return true
	}
	select {
	case <-s.ctx.Done():
		s.halt(&CancelError{Cause: context.Cause(s.ctx), Candidates: s.cands})
		return false
	default:
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.halt(&LimitError{Limit: "timeout", Candidates: s.cands})
		return false
	}
	return true
}

// emit hands one candidate to the caller and applies the candidate budget.
// It returns false when the search must stop.
func (s *search) emit(c *Candidate) bool {
	if !s.alive(true) {
		return false
	}
	s.cands++
	if !s.yield(c) {
		s.stopped = true // user stop: not an error
		return false
	}
	if s.b.MaxCandidates > 0 && s.cands >= s.b.MaxCandidates {
		s.halt(&LimitError{Limit: "candidates", Max: s.b.MaxCandidates, Candidates: s.cands})
		return false
	}
	return true
}

// newSearch builds a search with the effective deadline: the earlier of
// the budget's Timeout and the context's own deadline.
func newSearch(ctx context.Context, b Budget, yield func(*Candidate) bool) *search {
	s := &search{ctx: ctx, b: b, yield: yield}
	if b.Timeout > 0 {
		s.deadline = time.Now().Add(b.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (s.deadline.IsZero() || d.Before(s.deadline)) {
		s.deadline = d
	}
	return s
}

// errNoTrace reports a thread with no feasible control-flow trace.
func errNoTrace(tid int) error {
	return fmt.Errorf("exec: thread %d has no feasible trace", tid)
}
