package herdcats_bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/obs"
)

// coHeavySrc is the enumeration microbenchmark: four threads of three
// writes each over three locations. Every location collects four writes
// plus its initial one, so the candidate count is the pure coherence
// product 4!³ = 13824 — no reads, so rf contributes nothing and pruning
// never fires. One skeleton, many candidates: it isolates the per-candidate
// rf/co walk and check, not the per-test setup that dominates the corpus.
const coHeavySrc = `PPC coheavy
{ 0:r1=x; 0:r2=y; 0:r3=z;
  1:r1=x; 1:r2=y; 1:r3=z;
  2:r1=x; 2:r2=y; 2:r3=z;
  3:r1=x; 3:r2=y; 3:r3=z; }
 P0 | P1 | P2 | P3 ;
 li r4,1 | li r4,2 | li r4,3 | li r4,4 ;
 stw r4,0(r1) | stw r4,0(r1) | stw r4,0(r1) | stw r4,0(r1) ;
 stw r4,0(r2) | stw r4,0(r2) | stw r4,0(r2) | stw r4,0(r2) ;
 stw r4,0(r3) | stw r4,0(r3) | stw r4,0(r3) | stw r4,0(r3) ;
exists (x=1 /\ y=2 /\ z=3)`

func compileBench(tb testing.TB, src string) *exec.Program {
	tb.Helper()
	p, err := exec.Compile(litmus.MustParse(src))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// timedSearch runs one full co-heavy enumeration with the given sink and
// returns the wall clock. A nil sink is the instrumentation-disabled path.
func timedSearch(tb testing.TB, p *exec.Program, sink *obs.EnumStats) time.Duration {
	tb.Helper()
	start := time.Now()
	n := 0
	err := p.Search(context.Background(), exec.Request{Obs: sink},
		func(*exec.Candidate) bool { n++; return true })
	if err != nil {
		tb.Fatal(err)
	}
	if n != 13824 {
		tb.Fatalf("enumerated %d candidates, want 13824", n)
	}
	return time.Since(start)
}

// BenchmarkEnumerate measures the enumeration of the co-heavy workload
// with instrumentation off (obs=0, a nil sink — the default) and on
// (obs=1, a live EnumStats).
func BenchmarkEnumerate(b *testing.B) {
	p := compileBench(b, coHeavySrc)
	for _, instrumented := range []bool{false, true} {
		b.Run(fmt.Sprintf("obs=%d", b2i(instrumented)), func(b *testing.B) {
			b.ReportAllocs()
			var sink *obs.EnumStats
			if instrumented {
				sink = &obs.EnumStats{}
			}
			for i := 0; i < b.N; i++ {
				timedSearch(b, p, sink)
			}
		})
	}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// TestBenchEnumerateJSON, gated on BENCH_ENUM_OUT, times the co-heavy
// enumeration, measures the overhead of enabled instrumentation against
// the nil-sink path and the per-candidate cost of the checking layer, and
// writes the machine-readable record the CI bench step uploads as
// BENCH_enumerate.json, with the machine's core count.
func TestBenchEnumerateJSON(t *testing.T) {
	out := os.Getenv("BENCH_ENUM_OUT")
	if out == "" {
		t.Skip("set BENCH_ENUM_OUT=<path> to run the bench and write the JSON record")
	}
	p := compileBench(t, coHeavySrc)

	// Instrumentation overhead, measured within this run so machine speed
	// cancels out: interleave nil-sink and live-sink repetitions and
	// compare the fastest run of each (obsOverhead). The engine flushes
	// its counters once per search, so the enabled path should sit within
	// noise of the disabled one; the record keeps CI honest about it. The
	// raw ratio is kept verbatim, but the headline number clamps small
	// negatives to zero: an earlier record shipped obs_overhead = -1.05%,
	// which is not the instrumentation speeding up the search, just
	// scheduler noise at a magnitude below what this harness can resolve.
	// A negative reading beyond the floor survives the clamp — that would
	// be a real anomaly worth seeing.
	offMed, onMed := obsOverhead(t, p)
	rawOverhead := float64(onMed)/float64(offMed) - 1
	const obsNoiseFloor = 0.03
	overhead := rawOverhead
	if overhead < 0 && overhead >= -obsNoiseFloor {
		overhead = 0
	}

	// The enumeration cost itself: the walk alone, allocator-accounted.
	enumRows := []enumRow{enumBench(t, p)}

	// The checking layer itself: the allocation-storm before/after.
	checkRows, catSpeedup, catAllocRatio := checkBenchRows(t, p)

	record := struct {
		Test           string     `json:"test"`
		Candidates     int        `json:"candidates"`
		Cores          int        `json:"cores"`
		GoMaxProcs     int        `json:"gomaxprocs"`
		EnumRows       []enumRow  `json:"enum_rows"`
		CheckRows      []checkRow `json:"check_rows"`
		CatSpeedup     float64    `json:"cat_check_speedup"`
		CatAllocRatio  float64    `json:"cat_check_alloc_ratio"`
		ObsOffNsPerOp  int64      `json:"obs_off_ns_per_op"`
		ObsOnNsPerOp   int64      `json:"obs_on_ns_per_op"`
		ObsOverhead    float64    `json:"obs_overhead"`
		ObsOverheadRaw float64    `json:"obs_overhead_raw"`
	}{
		Test:           "coheavy (4 threads x 3 writes, 4!^3 candidates)",
		Candidates:     13824,
		Cores:          runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		EnumRows:       enumRows,
		CheckRows:      checkRows,
		CatSpeedup:     catSpeedup,
		CatAllocRatio:  catAllocRatio,
		ObsOffNsPerOp:  offMed,
		ObsOnNsPerOp:   onMed,
		ObsOverhead:    overhead,
		ObsOverheadRaw: rawOverhead,
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (cores=%d, gomaxprocs=%d)", out, record.Cores, record.GoMaxProcs)
	t.Logf("obs overhead: off %v, on %v (%.1f%%, raw %.1f%%)",
		time.Duration(offMed), time.Duration(onMed), overhead*100, rawOverhead*100)
	for _, r := range enumRows {
		t.Logf("enum: %v/candidate, %.2f allocs/candidate, gc pause %v",
			time.Duration(r.NsPerOp), r.AllocsPerOp, time.Duration(int64(r.GCPauseTotalNs)))
	}
	for _, r := range checkRows {
		t.Logf("check %s: %v/op, %.1f allocs/op, gc pause %v",
			r.Checker, time.Duration(r.NsPerOp), r.AllocsPerOp, time.Duration(r.GCPauseTotalNs))
	}
	t.Logf("cat check compiled vs interpreted: %.1fx faster, %.0fx fewer allocs",
		catSpeedup, catAllocRatio)
}

// TestCheckAllocsCeiling is the CI bench-smoke regression guard for the
// per-candidate allocation storm: the compiled cat Power evaluator, warm,
// must average no more than a handful of allocations per co-heavy
// candidate (the interpreter's figure is in the hundreds). The slack over
// zero covers the failed-check name slices of invalid candidates; the
// steady-state relation work itself draws entirely on the evaluator's
// pooled buffers. Gated on BENCH_ENUM_OUT like the other bench asserts.
func TestCheckAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the allocation ceiling check")
	}
	p := compileBench(t, coHeavySrc)
	xs := collectExecutions(t, p)
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	_, allocs, _ := checkBench(t, xs, compiled.NewEvaluator().Check)
	const ceiling = 8.0
	if allocs > ceiling {
		t.Errorf("compiled cat Power: %.2f allocs per candidate, ceiling %.0f — the allocation storm is back",
			allocs, ceiling)
	}
}

// enumRow is one enumeration-cost measurement of BENCH_enumerate.json:
// the bare walk (candidates fully derived, consumed in place, discarded),
// with the allocator and GC accounted per candidate. This is the cost the
// arena refactor targets.
type enumRow struct {
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	GCPauseTotalNs uint64  `json:"gc_pause_total_ns"`
}

// enumBench measures the bare co-heavy walk: best-of-3 wall clock with the
// allocation and GC-pause deltas of the best run. A warm-up search runs
// first so one-time costs (trace enumeration scratch, the first search's
// arena growth are per-search either way, but the allocator's own warmup
// is not) don't inflate the first repetition.
func enumBench(tb testing.TB, p *exec.Program) enumRow {
	tb.Helper()
	timedSearch(tb, p, nil)
	var best int64
	var allocsPerOp float64
	var gcPause uint64
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		n := 0
		err := p.Search(context.Background(), exec.Request{},
			func(*exec.Candidate) bool { n++; return true })
		el := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			tb.Fatal(err)
		}
		if n != 13824 {
			tb.Fatalf("enumerated %d candidates, want 13824", n)
		}
		if rep == 0 || el < best {
			best = el
			allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
			gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
		}
	}
	return enumRow{NsPerOp: best / 13824, AllocsPerOp: allocsPerOp, GCPauseTotalNs: gcPause}
}

// TestEnumAllocsCeiling is the CI bench-smoke regression guard for the
// enumeration side of the allocation discipline: the warm sequential walk
// must average at most one allocation per candidate. The steady state
// allocates nothing — the Candidate header, relations, final state and
// dynamic derivation all live in the search's arena slot — so what is
// left is the amortised per-search setup (traces, skeleton, first slot
// fill). Gated on BENCH_ENUM_OUT like the other bench asserts.
func TestEnumAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the enumeration allocation ceiling check")
	}
	p := compileBench(t, coHeavySrc)
	row := enumBench(t, p)
	const ceiling = 1.0
	if row.AllocsPerOp > ceiling {
		t.Errorf("sequential walk: %.2f allocs per candidate, ceiling %.0f — the enumeration allocation storm is back",
			row.AllocsPerOp, ceiling)
	}
}

// TestSearchCorpusAllocsCeiling is the CI bench-smoke regression guard for
// the per-test setup of the search: one Program.Search per test of the
// 59-test corpus, with a no-op yield, must stay under a fixed number of
// allocations in total. Unlike co-heavy, the corpus has few candidates
// per test, so this counts what every verdict pays before its first
// candidate: trace enumeration, the feedability filter and skeleton
// assembly. The ceiling is about 10% above the count measured when it
// was set (go1.24). Gated on BENCH_ENUM_OUT like the other bench asserts.
func TestSearchCorpusAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the corpus search allocation ceiling check")
	}
	paths, err := filepath.Glob("testdata/litmus/*.litmus")
	if err != nil || len(paths) != 59 {
		t.Fatalf("corpus: %d tests, %v; want 59", len(paths), err)
	}
	var progs []*exec.Program
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, compileBench(t, string(src)))
	}
	searchAll := func() {
		for _, p := range progs {
			if err := p.Search(context.Background(), exec.Request{}, func(*exec.Candidate) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
	}
	searchAll() // warm-up
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	searchAll()
	runtime.ReadMemStats(&ms1)
	allocs := ms1.Mallocs - ms0.Mallocs
	const ceiling = 58000
	t.Logf("corpus search: %d allocations (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("corpus search: %d allocations, ceiling %d — dead skeletons or per-test setup allocations are back",
			allocs, ceiling)
	}
}

// checkRow is one model-checking measurement of BENCH_enumerate.json:
// one checker driven over every pre-derived co-heavy candidate on a single
// core, with the allocator and GC accounted per candidate.
type checkRow struct {
	Checker        string  `json:"checker"`
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	GCPauseTotalNs uint64  `json:"gc_pause_total_ns"`
}

// collectExecutions enumerates the workload once and keeps every derived
// candidate execution, so checker timings below measure checking alone —
// no enumeration, no rf/co picking, no dynamic derivation. The yielded
// candidates live in the search's arena slot, so retention requires Clone.
func collectExecutions(tb testing.TB, p *exec.Program) []*events.Execution {
	tb.Helper()
	var xs []*events.Execution
	err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		xs = append(xs, c.Clone().X)
		return true
	})
	if err != nil {
		tb.Fatal(err)
	}
	return xs
}

// checkBench times one checker over the collected executions: median-of-3
// wall clock plus allocation and GC-pause deltas from the slowest-run-free
// pass. The checker is warmed first so one-time work (static binding, lazy
// model lowering, arena growth) isn't billed to the steady state.
func checkBench(tb testing.TB, xs []*events.Execution, check func(*events.Execution) core.Result) (nsPerOp int64, allocsPerOp float64, gcPause uint64) {
	tb.Helper()
	for _, x := range xs[:min(len(xs), 64)] {
		check(x)
	}
	var best int64
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for _, x := range xs {
			check(x)
		}
		el := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if rep == 0 || el < best {
			best = el
			allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(xs))
			gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
		}
	}
	return best / int64(len(xs)), allocsPerOp, gcPause
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// checkBenchRows measures the per-candidate cost of the checking layer
// itself on the co-heavy candidates: the cat Power model through the AST
// interpreter (the old per-candidate path) and through the compiled
// evaluator. The pair is the before/after of the allocation-storm fix;
// their ratios are recorded alongside the raw rows.
func checkBenchRows(tb testing.TB, p *exec.Program) (rows []checkRow, speedup, allocRatio float64) {
	tb.Helper()
	xs := collectExecutions(tb, p)
	m, err := cat.Builtin("power")
	if err != nil {
		tb.Fatal(err)
	}
	compiled, err := m.Compiled()
	if err != nil {
		tb.Fatal(err)
	}
	ev := compiled.NewEvaluator()
	cases := []struct {
		name  string
		check func(*events.Execution) core.Result
	}{
		{"cat:power:interpreted", m.Interpreted().Check},
		{"cat:power:compiled", ev.Check},
	}
	for _, c := range cases {
		ns, allocs, pause := checkBench(tb, xs, c.check)
		rows = append(rows, checkRow{Checker: c.name, NsPerOp: ns, AllocsPerOp: allocs, GCPauseTotalNs: pause})
	}
	interp, comp := rows[0], rows[1]
	speedup = float64(interp.NsPerOp) / float64(comp.NsPerOp)
	den := comp.AllocsPerOp
	if den < 0.01 {
		den = 0.01 // a fully allocation-free run would divide by zero
	}
	allocRatio = interp.AllocsPerOp / den
	return rows, speedup, allocRatio
}

// obsOverhead interleaves sequential enumerations with the sink off and on
// and returns the minimum of each. Two choices keep the estimate honest on
// a noisy, time-shared runner (where run-to-run wall clock swings far more
// than the few atomics the sink costs). The pair order alternates per
// repetition: with a fixed off-then-on order, every on-run is warmer than
// its partner, which biased earlier records negative. And the estimator is
// the minimum, not the median: external interference only ever adds time,
// so the least-interfered run of each mode is the best estimate of its
// true cost — medians of oscillating interference produced overheads like
// -21% that say nothing about the instrumentation.
func obsOverhead(t *testing.T, p *exec.Program) (offMin, onMin int64) {
	t.Helper()
	const reps = 6
	var off, on []int64
	sink := &obs.EnumStats{}
	timedSearch(t, p, nil) // warm-up, billed to nobody
	for r := 0; r < reps; r++ {
		if r%2 == 0 {
			off = append(off, timedSearch(t, p, nil).Nanoseconds())
			on = append(on, timedSearch(t, p, sink).Nanoseconds())
		} else {
			on = append(on, timedSearch(t, p, sink).Nanoseconds())
			off = append(off, timedSearch(t, p, nil).Nanoseconds())
		}
	}
	sort.Slice(off, func(i, j int) bool { return off[i] < off[j] })
	sort.Slice(on, func(i, j int) bool { return on[i] < on[j] })
	return off[0], on[0]
}

// TestObsOverheadSmoke is the CI bench-smoke assertion: enabling the
// enumeration counters must not slow the sequential co-heavy search by
// more than 20% (the engine accumulates privately and flushes once per
// search, so the true cost is a handful of atomics per run — the margin
// is noise allowance, not a real budget). Gated on BENCH_ENUM_OUT like
// the JSON record so ordinary test runs stay fast.
func TestObsOverheadSmoke(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the overhead smoke")
	}
	p := compileBench(t, coHeavySrc)
	timedSearch(t, p, nil) // warm-up
	offMed, onMed := obsOverhead(t, p)
	if ratio := float64(onMed) / float64(offMed); ratio > 1.20 {
		t.Errorf("instrumented search %.2fx slower than nil-sink (off %v, on %v)",
			ratio, time.Duration(offMed), time.Duration(onMed))
	}
}
