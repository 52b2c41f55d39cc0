package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// The canonical phase names of one simulation run, in pipeline order.
// Callers may record additional phases; Summary orders known phases first.
const (
	PhaseParse     = "parse"
	PhaseCompile   = "compile"
	PhaseEnumerate = "enumerate"
	PhaseCheck     = "check"
	PhaseVerdict   = "verdict"
)

// phaseOrder ranks the canonical phases for deterministic summaries.
var phaseOrder = map[string]int{
	PhaseParse:     0,
	PhaseCompile:   1,
	PhaseEnumerate: 2,
	PhaseCheck:     3,
	PhaseVerdict:   4,
}

// EnumStats collects the counters one (or many) enumerations report:
// candidates yielded and subtrees rejected by early SC-per-location
// pruning. All methods are nil-safe and safe for concurrent use; the
// engine accumulates privately and flushes once per search, so the hot
// walk never touches an atomic.
type EnumStats struct {
	candidates atomic64
	pruned     atomic64
}

// atomic64 aliases the counter implementation so EnumStats stays compact.
type atomic64 = Counter

// AddCandidates records n candidates yielded.
func (s *EnumStats) AddCandidates(n int) {
	if s == nil {
		return
	}
	s.candidates.Add(n)
}

// AddPruned records n decision subtrees rejected by early pruning.
func (s *EnumStats) AddPruned(n int) {
	if s == nil {
		return
	}
	s.pruned.Add(n)
}

// Merge folds a snapshot into s (for per-request stats rolling up into a
// process-wide aggregate).
func (s *EnumStats) Merge(snap EnumSnapshot) {
	if s == nil {
		return
	}
	s.candidates.v.Add(snap.Candidates)
	s.pruned.v.Add(snap.Pruned)
}

// EnumSnapshot is the JSON-ready copy of an EnumStats.
type EnumSnapshot struct {
	Candidates uint64 `json:"candidates"`
	Pruned     uint64 `json:"pruned,omitempty"`
}

// Add folds another snapshot into s (counters sum). Used when aggregating
// per-job snapshots into a report.
func (s *EnumSnapshot) Add(o EnumSnapshot) {
	s.Candidates += o.Candidates
	s.Pruned += o.Pruned
}

// Snapshot copies the counters (zero value for nil).
func (s *EnumStats) Snapshot() EnumSnapshot {
	if s == nil {
		return EnumSnapshot{}
	}
	return EnumSnapshot{
		Candidates: s.candidates.Value(),
		Pruned:     s.pruned.Value(),
	}
}

// Trace records one run's per-phase wall clock and enumeration counters.
// Phases accumulate: observing the same phase twice (a campaign retry, a
// split measurement) sums the durations. A nil Trace ignores everything,
// so callers thread traces down unconditionally. Safe for concurrent use.
type Trace struct {
	mu     sync.Mutex
	phases map[string]time.Duration
	enum   EnumStats
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Enum returns the trace's enumeration-counter sink (nil for a nil trace),
// ready to hand to the engine.
func (t *Trace) Enum() *EnumStats {
	if t == nil {
		return nil
	}
	return &t.enum
}

// Phase starts timing a phase and returns the function that stops the
// clock and records the span. Use as `defer tr.Phase(obs.PhaseCompile)()`
// or stop explicitly. Nil-safe: a nil trace returns a no-op stop.
func (t *Trace) Phase(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Observe(name, time.Since(start)) }
}

// Observe adds a measured duration to a phase.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.phases == nil {
		t.phases = map[string]time.Duration{}
	}
	t.phases[name] += d
	t.mu.Unlock()
}

// PhaseSpan is one row of a trace summary.
type PhaseSpan struct {
	Phase      string `json:"phase"`
	DurationUS int64  `json:"duration_us"`
}

// TraceJSON is the deterministic wire form of a trace: canonical phases in
// pipeline order, any extra phases after them alphabetically, then the
// enumeration counters.
type TraceJSON struct {
	Phases []PhaseSpan  `json:"phases"`
	Enum   EnumSnapshot `json:"enum"`
}

// Summary renders the trace for a response or report (nil for a nil or
// empty trace with no counters).
func (t *Trace) Summary() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]PhaseSpan, 0, len(t.phases))
	for name, d := range t.phases {
		spans = append(spans, PhaseSpan{Phase: name, DurationUS: d.Microseconds()})
	}
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		ri, iKnown := phaseOrder[spans[i].Phase]
		rj, jKnown := phaseOrder[spans[j].Phase]
		switch {
		case iKnown && jKnown:
			return ri < rj
		case iKnown != jKnown:
			return iKnown
		default:
			return spans[i].Phase < spans[j].Phase
		}
	})
	enum := t.enum.Snapshot()
	if len(spans) == 0 && enum == (EnumSnapshot{}) {
		return nil
	}
	return &TraceJSON{Phases: spans, Enum: enum}
}

// String renders the summary as an aligned text table (empty for nil).
func (j *TraceJSON) String() string {
	if j == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range j.Phases {
		fmt.Fprintf(&b, "  %-10s %12s\n", s.Phase, time.Duration(s.DurationUS)*time.Microsecond)
	}
	fmt.Fprintf(&b, "  %-10s %12d\n", "candidates", j.Enum.Candidates)
	if j.Enum.Pruned > 0 {
		fmt.Fprintf(&b, "  %-10s %12d\n", "pruned", j.Enum.Pruned)
	}
	return b.String()
}
