package exec_test

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/obs"
)

// pathologicalSrc has a candidate space in the hundreds of thousands:
// eight same-location writes give 7! coherence orders per read-value
// assignment, and the two reads range over an eight-value domain. Running
// it to completion takes far longer than any budget used here, so these
// tests only pass if the budget actually interrupts the search.
const pathologicalSrc = `PPC pathological
{ 0:r1=x; 1:r1=x; }
 P0 | P1 ;
 li r2,1 | li r2,5 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 li r2,2 | li r2,6 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 li r2,3 | li r2,7 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 li r2,4 | lwz r3,0(r1) ;
 stw r2,0(r1) | lwz r4,0(r1) ;
exists (1:r3=1 /\ 1:r4=2)`

func compilePathological(t *testing.T) *exec.Program {
	t.Helper()
	p, err := exec.Compile(litmus.MustParse(pathologicalSrc))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCancelStopsWithinOneYield(t *testing.T) {
	p := compilePathological(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yields := 0
	err := p.Search(ctx, exec.Request{Budget: exec.Budget{}}, func(*exec.Candidate) bool {
		yields++
		cancel() // cancel mid-search, from inside the first yield
		return true
	})
	if yields != 1 {
		t.Errorf("enumeration yielded %d candidates after cancellation, want exactly 1", yields)
	}
	if !errors.Is(err, exec.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	var ce *exec.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *CancelError", err)
	}
	if ce.Candidates != 1 {
		t.Errorf("CancelError.Candidates = %d, want 1", ce.Candidates)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("CancelError should unwrap to the context cause, got %v", err)
	}
}

func TestMaxCandidatesBudget(t *testing.T) {
	p := compilePathological(t)
	yields := 0
	err := p.Search(context.Background(), exec.Request{Budget: exec.Budget{MaxCandidates: 3}}, func(*exec.Candidate) bool {
		yields++
		return true
	})
	if yields != 3 {
		t.Errorf("yielded %d candidates, want 3", yields)
	}
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
	var le *exec.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T, want *LimitError", err)
	}
	if le.Limit != "candidates" || le.Max != 3 || le.Candidates != 3 {
		t.Errorf("LimitError = %+v, want candidates/3/3", le)
	}
}

func TestTimeoutBudget(t *testing.T) {
	p := compilePathological(t)
	start := time.Now()
	yields := 0
	err := p.Search(context.Background(), exec.Request{Budget: exec.Budget{Timeout: 30 * time.Millisecond}},
		func(*exec.Candidate) bool {
			yields++
			return true
		})
	elapsed := time.Since(start)
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Errorf("err = %v (after %d yields), want ErrBudgetExceeded", err, yields)
	}
	var le *exec.LimitError
	if errors.As(err, &le) && le.Limit != "timeout" {
		t.Errorf("LimitError.Limit = %q, want timeout", le.Limit)
	}
	// Prompt termination: the throttled deadline polls must fire orders
	// of magnitude before the full search would finish.
	if elapsed > 5*time.Second {
		t.Errorf("enumeration overran its 30ms budget by %v", elapsed)
	}
}

func TestTraceBudget(t *testing.T) {
	// Four read-value traces for P1; a cap of two truncates the space
	// but the truncated enumeration still yields its candidates.
	src := `PPC tinyread
{ 0:r1=x; 1:r1=x; }
 P0 | P1 ;
 li r2,1 | lwz r3,0(r1) ;
 stw r2,0(r1) | lwz r4,0(r1) ;
exists (1:r3=1 /\ 1:r4=1)`
	p, err := exec.Compile(litmus.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	yields := 0
	err = p.Search(context.Background(), exec.Request{Budget: exec.Budget{MaxTracesPerThread: 2}},
		func(*exec.Candidate) bool {
			yields++
			return true
		})
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
	var le *exec.LimitError
	if errors.As(err, &le) && le.Limit != "traces" {
		t.Errorf("LimitError.Limit = %q, want traces", le.Limit)
	}
	if yields == 0 {
		t.Error("truncated enumeration should still yield the candidates it found")
	}
}

func TestEarlyStopIsNotAnError(t *testing.T) {
	p := compilePathological(t)
	yields := 0
	err := p.Search(context.Background(), exec.Request{Budget: exec.Budget{MaxCandidates: 100}},
		func(*exec.Candidate) bool {
			yields++
			return false // caller stop, before any budget trips
		})
	if err != nil {
		t.Errorf("caller early-stop returned %v, want nil", err)
	}
	if yields != 1 {
		t.Errorf("yielded %d, want 1", yields)
	}
}

func TestBudgetScale(t *testing.T) {
	b := exec.Budget{MaxCandidates: 10, Timeout: time.Second}
	s := b.Scale(4)
	if s.MaxCandidates != 40 || s.Timeout != 4*time.Second || s.MaxTracesPerThread != 0 {
		t.Errorf("Scale(4) = %+v", s)
	}
	if !exec.Budget.Unlimited(exec.Budget{}) || b.Unlimited() {
		t.Error("Unlimited misclassifies")
	}
}

// TestBudgetScaleSaturates is the overflow regression: repeated
// retry-scaling of a large budget must saturate at the maximum
// representable bound, never wrap negative (read as instantly exceeded) or
// wrap back around to a small positive bound.
func TestBudgetScaleSaturates(t *testing.T) {
	b := exec.Budget{
		MaxCandidates:      math.MaxInt/2 + 1,
		MaxTracesPerThread: math.MaxInt/4 + 1,
		Timeout:            time.Duration(math.MaxInt64/2 + 1),
	}
	s := b.Scale(4)
	if s.MaxCandidates != math.MaxInt {
		t.Errorf("MaxCandidates = %d, want saturation at MaxInt", s.MaxCandidates)
	}
	if s.MaxTracesPerThread != math.MaxInt {
		t.Errorf("MaxTracesPerThread = %d, want saturation at MaxInt", s.MaxTracesPerThread)
	}
	if s.Timeout != time.Duration(math.MaxInt64) {
		t.Errorf("Timeout = %d, want saturation at MaxInt64", s.Timeout)
	}

	// The campaign's retry loop scales repeatedly: the bound must stay
	// pinned at the maximum and remain positive forever.
	s = exec.Budget{MaxCandidates: 1 << 40, Timeout: time.Hour}
	for i := 0; i < 50; i++ {
		s = s.Scale(4)
		if s.MaxCandidates <= 0 || s.Timeout <= 0 {
			t.Fatalf("iteration %d: budget wrapped: %+v", i, s)
		}
	}
	if s.MaxCandidates != math.MaxInt || s.Timeout != time.Duration(math.MaxInt64) {
		t.Errorf("repeated scaling = %+v, want pinned at the maximum", s)
	}

	// Unlimited (zero) bounds stay unlimited, small bounds still scale.
	s = exec.Budget{MaxCandidates: 3}.Scale(1000)
	if s.MaxCandidates != 3000 || s.MaxTracesPerThread != 0 || s.Timeout != 0 {
		t.Errorf("Scale(1000) = %+v", s)
	}
}

// unfedSrc's P1 reads x, which starts at 4097: the encoding of address y,
// outside the read-value domain since no location holds an address. So
// every value the read can take (0 or 1) is one nothing writes to x, and
// no trace of P1 can be fed.
const unfedSrc = `PPC unfed
{ x=4097; 0:r1=y; 1:r1=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | ;
exists (1:r5=1)`

// TestUnfeedableThreadYieldsNothing: a thread left with no feedable trace
// makes an empty search, not an error — every combination is infeasible,
// so none is assembled.
func TestUnfeedableThreadYieldsNothing(t *testing.T) {
	p, err := exec.Compile(litmus.MustParse(unfedSrc))
	if err != nil {
		t.Fatal(err)
	}
	for tid := range p.Threads {
		if ts, err := p.ThreadTraces(tid); err != nil || len(ts) == 0 {
			t.Fatalf("thread %d: %d traces, %v; want some", tid, len(ts), err)
		}
	}
	sink := &obs.EnumStats{}
	n := 0
	err = p.Search(context.Background(), exec.Request{Obs: sink}, func(*exec.Candidate) bool { n++; return true })
	if err != nil || n != 0 {
		t.Errorf("Search = %d candidates, %v; want 0, nil", n, err)
	}
	if got := sink.Snapshot(); got != (obs.EnumSnapshot{}) {
		t.Errorf("counters = %+v, want none", got)
	}
}

// TestUnfeedableThreadUnderTraceCap: the cap keeps P1's first trace only,
// whose read takes the smallest domain value, -1, which P0 writes to y but
// nothing writes to x. The truncation is still reported, with 0
// candidates.
func TestUnfeedableThreadUnderTraceCap(t *testing.T) {
	p, err := exec.Compile(litmus.MustParse(`PPC unfedcap
{ 0:r1=y; 1:r1=x; }
 P0 | P1 ;
 li r4,-1 | lwz r5,0(r1) ;
 stw r4,0(r1) | ;
exists (1:r5=0)`))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = p.Search(context.Background(), exec.Request{Budget: exec.Budget{MaxTracesPerThread: 1}},
		func(*exec.Candidate) bool { n++; return true })
	var le *exec.LimitError
	if !errors.As(err, &le) || *le != (exec.LimitError{Limit: "traces", Max: 1}) || n != 0 {
		t.Errorf("Search = %d candidates, %v; want 0 and the traces limit", n, err)
	}
}

// TestBudgetsOnFilteredTraces: on mp+lwsync+addr-po-detour (1×64×4
// traces), the trace cap applies before unfeedable traces are dropped and
// the candidate cap counts emitted candidates, so both trip where they
// did when every combination was assembled: the counts below are the
// unfiltered search's.
func TestBudgetsOnFilteredTraces(t *testing.T) {
	src, err := os.ReadFile("../../testdata/litmus/mp+lwsync+addr-po-detour.litmus")
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(litmus.MustParse(string(src)))
	if err != nil {
		t.Fatal(err)
	}
	full, err := stream(t, p, exec.Request{})
	if err != nil || len(full) != 36 {
		t.Fatalf("unbudgeted: %d candidates, %v; want 36", len(full), err)
	}
	for _, c := range []struct{ traces, want int }{{1, 2}, {2, 8}, {8, 18}, {20, 36}} {
		got, err := stream(t, p, exec.Request{Budget: exec.Budget{MaxTracesPerThread: c.traces}})
		var le *exec.LimitError
		if !errors.As(err, &le) || *le != (exec.LimitError{Limit: "traces", Max: c.traces, Candidates: c.want}) || len(got) != c.want {
			t.Errorf("MaxTracesPerThread=%d: %d candidates, %v; want %d and the traces limit", c.traces, len(got), err, c.want)
		}
	}
	for _, k := range []int{1, 5, 17} {
		got, err := stream(t, p, exec.Request{Budget: exec.Budget{MaxCandidates: k}})
		var le *exec.LimitError
		if !errors.As(err, &le) || *le != (exec.LimitError{Limit: "candidates", Max: k, Candidates: k}) {
			t.Errorf("MaxCandidates=%d: %v, want the candidates limit after %d", k, err, k)
		}
		if !reflect.DeepEqual(got, full[:k]) {
			t.Errorf("MaxCandidates=%d: stream is not the first %d candidates of the full one", k, k)
		}
	}
}
