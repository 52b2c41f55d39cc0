package obs_test

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"herdcats/internal/obs"
)

// TestHistogramBucketing pins the power-of-two bucket layout: bucket i
// holds values in (2^(i-1), 2^i - 1] with inclusive upper bound 2^i - 1,
// and non-positive values land in bucket 0.
func TestHistogramBucketing(t *testing.T) {
	h := &obs.Histogram{}
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := map[int]uint64{
		0:  2, // -5, 0
		1:  1, // 1
		2:  2, // 2, 3
		3:  2, // 4, 7
		4:  1, // 8
		10: 1, // 1023 (bound 2^10-1)
		11: 1, // 1024
	}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d (le=%d): count %d, want %d", i, obs.BucketBound(i), n, want[i])
		}
	}
	if s.Count != 10 {
		t.Errorf("count = %d, want 10", s.Count)
	}
	if s.Sum != -5+0+1+2+3+4+7+8+1023+1024 {
		t.Errorf("sum = %d", s.Sum)
	}
	if got := obs.BucketBound(63); got != math.MaxInt64 {
		t.Errorf("top bucket bound = %d, want MaxInt64", got)
	}
}

// TestConcurrentCounters hammers one counter, gauge and histogram from
// many goroutines; run under -race this is the data-race check, and the
// totals prove no increment was lost.
func TestConcurrentCounters(t *testing.T) {
	const workers, perWorker = 16, 1000
	c := &obs.Counter{}
	g := &obs.Gauge{}
	h := &obs.Histogram{}
	e := &obs.EnumStats{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i))
				e.AddCandidates(1)
				e.AddPruned(2)
				e.AddSkeletons(3)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	snap := e.Snapshot()
	if snap.Candidates != workers*perWorker || snap.Pruned != 2*workers*perWorker || snap.Skeletons != 3*workers*perWorker {
		t.Errorf("enum stats = %+v", snap)
	}
}

// TestNilSinksNoOp is the nil-safety contract: every operation on a nil
// sink must be a silent no-op, because the engine threads sinks down
// unconditionally.
func TestNilSinksNoOp(t *testing.T) {
	var c *obs.Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *obs.Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *obs.Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Snapshot().Sum != 0 {
		t.Error("nil histogram recorded")
	}
	var e *obs.EnumStats
	e.AddCandidates(1)
	e.AddPruned(1)
	e.AddSkeletons(1)
	e.Merge(obs.EnumSnapshot{Candidates: 9, Skeletons: 2})
	if e.Snapshot() != (obs.EnumSnapshot{}) {
		t.Error("nil enum stats recorded")
	}
	var tr *obs.Trace
	tr.Phase("compile")()
	tr.Observe("check", time.Second)
	if tr.Enum() != nil {
		t.Error("nil trace handed out a sink")
	}
	if tr.Summary() != nil {
		t.Error("nil trace summarised")
	}
	var r *obs.Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	r.GaugeFunc("f", func() int64 { return 1 })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposed %q (err %v)", sb.String(), err)
	}
}

// TestTraceSummaryOrder: canonical phases come out in pipeline order
// regardless of recording order, extra phases after them alphabetically,
// and durations accumulate across repeated observations.
func TestTraceSummaryOrder(t *testing.T) {
	tr := obs.NewTrace()
	tr.Observe(obs.PhaseVerdict, time.Millisecond)
	tr.Observe(obs.PhaseCheck, 2*time.Millisecond)
	tr.Observe("zeta", time.Millisecond)
	tr.Observe("alpha", time.Millisecond)
	tr.Observe(obs.PhaseCompile, 3*time.Millisecond)
	tr.Observe(obs.PhaseCompile, time.Millisecond) // accumulates
	tr.Enum().AddCandidates(7)
	tr.Enum().AddSkeletons(2)

	sum := tr.Summary()
	if sum == nil {
		t.Fatal("summary is nil")
	}
	var names []string
	for _, s := range sum.Phases {
		names = append(names, s.Phase)
	}
	want := []string{"compile", "check", "verdict", "alpha", "zeta"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("phase order %v, want %v", names, want)
	}
	if sum.Phases[0].DurationUS != 4000 {
		t.Errorf("compile duration %dus, want 4000 (accumulated)", sum.Phases[0].DurationUS)
	}
	if sum.Enum.Candidates != 7 || sum.Enum.Skeletons != 2 {
		t.Errorf("enum counters %+v", sum.Enum)
	}
	// The -stats table: skeletons assembled, then candidates yielded.
	if txt := sum.String(); !strings.Contains(txt, "  skeletons             2\n  candidates            7\n") {
		t.Errorf("summary table lacks the skeletons and candidates rows:\n%s", txt)
	}

	if obs.NewTrace().Summary() != nil {
		t.Error("empty trace should summarise to nil")
	}
}

// TestRegistryExposition renders a small registry and checks the
// Prometheus text shape: TYPE headers, labelled series, cumulative
// histogram buckets ending in +Inf, _sum and _count.
func TestRegistryExposition(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter(`req_total{route="/run"}`).Add(3)
	r.Counter(`req_total{route="/batch"}`).Add(1)
	r.Gauge("inflight").Set(2)
	r.GaugeFunc("cache_entries", func() int64 { return 11 })
	h := r.Histogram(`latency_us{route="/run"}`)
	h.Observe(3) // bucket le=3
	h.Observe(5) // bucket le=7

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE req_total counter\n",
		`req_total{route="/batch"} 1` + "\n",
		`req_total{route="/run"} 3` + "\n",
		"# TYPE inflight gauge\n",
		"inflight 2\n",
		"cache_entries 11\n",
		"# TYPE latency_us histogram\n",
		`latency_us_bucket{route="/run",le="3"} 1` + "\n",
		`latency_us_bucket{route="/run",le="7"} 2` + "\n",
		`latency_us_bucket{route="/run",le="+Inf"} 2` + "\n",
		`latency_us_sum{route="/run"} 8` + "\n",
		`latency_us_count{route="/run"} 2` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}
