package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
	"time"

	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
)

func init() { corpusDir = "../testdata/litmus" }

func TestGeneratorSameSeedSameSources(t *testing.T) {
	a, b := genCoherence(42, cohPerShape), genCoherence(42, cohPerShape)
	if strings.Join(a, "\x00") != strings.Join(b, "\x00") {
		t.Fatal("seed 42 generated two different corpora")
	}
}

func TestGeneratorOtherSeedOtherCorpus(t *testing.T) {
	a, b := genCoherence(42, cohPerShape), genCoherence(43, cohPerShape)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 42 and 43 share %d of %d sources", same, len(a))
	}
	// Not just the names: the litmus bodies differ too.
	strip := func(src string) string { return src[strings.IndexByte(src, '\n'):] }
	bodies := 0
	for i := range a {
		if strip(a[i]) != strip(b[i]) {
			bodies++
		}
	}
	if bodies < len(a)/2 {
		t.Fatalf("only %d of %d bodies differ between seeds", bodies, len(a))
	}
}

// TestGeneratorCoversCandidateRange checks every generated test against
// the enumerator: its candidate count is its shape's, and the shapes span
// 10²–10⁴ candidates.
func TestGeneratorCoversCandidateRange(t *testing.T) {
	lo, hi := math.MaxInt, 0
	rng := rand.New(rand.NewPCG(7, 7))
	for _, sh := range cohShapes {
		src := genCohTest(rng, sh, "size")
		test, err := litmus.Parse(src)
		if err != nil {
			t.Fatalf("%v: %v\n%s", sh, err, src)
		}
		p, err := exec.Compile(test)
		if err != nil {
			t.Fatal(err)
		}
		n, err := search(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if n != sh.candidates() {
			t.Errorf("%v: %d candidates, shape says %d", sh, n, sh.candidates())
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if lo < 100 || lo > 200 || hi < 9000 || hi > 15000 {
		t.Errorf("candidates span %d..%d, want about 10²..10⁴", lo, hi)
	}
}

// corpusWorkload is the first n (test, model) pairs of the cold corpus.
func corpusWorkload(t *testing.T, n int) *workload {
	t.Helper()
	w, err := buildWorkload("corpus-cold", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.items = w.items[:n]
	return w
}

// onePass runs every item of w once through a fresh stack.
func onePass(t *testing.T, w *workload, refs map[pair]reference) *result {
	t.Helper()
	dv := &driver{w: w, refs: refs, clients: 2, rng: rand.New(rand.NewPCG(1, 1)), res: &result{}}
	st, err := dv.newStack()
	if err != nil {
		t.Fatal(err)
	}
	dv.loop(context.Background(), st, w.items, time.Time{})
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	return dv.res
}

// TestOracleCatchesPlantedWrongReference plants a flipped verdict and a
// wrong final-state set in the references and checks that exactly those
// verdicts count as failed, on /v1/run and on a streamed batch.
func TestOracleCatchesPlantedWrongReference(t *testing.T) {
	ctx := context.Background()
	run := corpusWorkload(t, 16)
	batch := &workload{items: []item{{batch: true}}}
	for _, src := range genCoherence(3, 1)[:4] {
		batch.items[0].pairs = append(batch.items[0].pairs, pair{src: src, model: "tso"})
	}
	for _, w := range []*workload{run, batch} {
		refs, err := buildOracle(ctx, w.distinct(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if res := onePass(t, w, refs); res.failed != 0 || res.attempted != len(w.distinct()) {
			t.Fatalf("true references: %d of %d failed: %v", res.failed, res.attempted, res.errs)
		}
		ps := w.distinct()
		flipped := refs[ps[0]]
		flipped.allowed = !flipped.allowed
		refs[ps[0]] = flipped
		extra := refs[ps[1]]
		extra.states = append(append([]string(nil), extra.states...), "planted")
		refs[ps[1]] = extra
		res := onePass(t, w, refs)
		if res.failed != 2 {
			t.Fatalf("planted 2 wrong references, %d verdicts failed: %v", res.failed, res.errs)
		}
	}
}

// TestOracleRejectsCatalogueDisagreement: a reference the catalogue
// contradicts is an error, not a silently trusted expectation.
func TestOracleRejectsCatalogueDisagreement(t *testing.T) {
	w := corpusWorkload(t, 1)
	p := w.items[0].pairs[0]
	test, err := litmus.Parse(p.src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := interpret(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	name := map[string]string{"arm": "ARM", "tso": "TSO", "power": "Power", "sc": "SC"}[p.model]
	if name == "" {
		t.Skipf("first pair is under %s, not a catalogue model", p.model)
	}
	lying := map[string]map[string]bool{memo.CanonicalTest(test): {name: !ref.allowed}}
	if _, err := interpret(context.Background(), p, lying); err == nil {
		t.Fatal("a catalogue entry contradicting the interpreter was accepted")
	}
}

// TestAccountingRowsSumToRoot builds one request by hand: a batch whose
// gateway span fans out to two overlapping upstream exchanges. Every
// nanosecond of the client span must land in exactly one row.
func TestAccountingRowsSumToRoot(t *testing.T) {
	tr := newTracer()
	add := func(name string, sub, parent uint64, start, end int64) {
		tr.spans = append(tr.spans, span{ID: 1, Sub: sub, Parent: parent, Name: name, Start: start, End: end})
	}
	add(spanClient, 1, 0, 0, 1000)
	add(spanGateway, 2, 0, 50, 950)
	add(spanUpstream, 3, 2, 100, 700)
	add(spanUpstream, 4, 2, 400, 900)
	add(spanNode, 5, 3, 120, 680)
	add(spanNode, 6, 4, 420, 880)
	tr.replays = []replay{{ID: 1, Stack: 1, Verdicts: 4, layerCost: layerCost{
		Parse: 10, Key: 10, Compile: 20, Traces: 5, Search: 100, Check: 300, Simulate: 450, Simulated: 4,
	}}}
	a, err := account(tr, map[int]float64{1: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, k := range layerRows {
		sum += a.rows[k]
	}
	if math.Abs(sum-1000) > 1e-6 {
		t.Fatalf("rows sum to %v, want the client span's 1000: %v", sum, a.rows)
	}
	if a.rows["client"] != 100 {
		t.Errorf("client row %v, want 100", a.rows["client"])
	}
	// The exchanges leave 100 of the gateway span uncovered; they get
	// 450 and 350 of it (300 and 150 alone, 2 × 150 shared), so weights
	// 0.75 and 0.7 put 58 of their transport time into fleet too.
	if math.Abs(a.rows["fleet"]-158) > 1e-6 {
		t.Errorf("fleet row %v, want 158", a.rows["fleet"])
	}
	// herdd's share of the wall is 742 of its 1020 span-ns; exec holds
	// compile (20 scaled by 0.5) and search (100) in that proportion.
	if want := 742.0 / 1020 * 110; math.Abs(a.rows["exec"]-want) > 1e-6 {
		t.Errorf("exec row %v, want %v", a.rows["exec"], want)
	}
}

func TestShareOut(t *testing.T) {
	parent := span{Start: 0, End: 100}
	got := shareOut(parent, []span{{Start: 0, End: 60}, {Start: 40, End: 100}})
	// 0..40 first alone, 40..60 split, 60..100 second alone.
	if got[0] != 50 || got[1] != 50 {
		t.Fatalf("shares %v, want [50 50]", got)
	}
}

// TestTracedRunReportsEveryLayer drives a short traced run end to end and
// checks that every per-layer metric named in BENCHMARK.json is printed.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the serving stack for two seconds")
	}
	w := corpusWorkload(t, 24)
	refs, err := buildOracle(context.Background(), w.distinct(), 2)
	if err != nil {
		t.Fatal(err)
	}
	dv := &driver{w: w, refs: refs, clients: 2, rng: rand.New(rand.NewPCG(1, 1))}
	rec := record{Workload: "test", Samples: map[string]int{}}
	out, err := traced(context.Background(), dv, 2*time.Second, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("%d verdicts failed: %v", out.Failed, rec.Failures)
	}
	checkMetricNames(t, out, contract(t).PerLayer)
	if rec.Layers == nil || rec.Layers.Dominant == "" {
		t.Fatal("traced run recorded no layer accounting")
	}
}

// benchmarkContract is the part of BENCHMARK.json the harness must honour.
type benchmarkContract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func contract(t *testing.T) benchmarkContract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkContract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMetricNames: the result line carries exactly the contract's
// metrics, each with the contract's unit.
func checkMetricNames(t *testing.T, out output, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s in %s, contract says %s", m.Name, got.Unit, m.Unit)
		}
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("%d metrics reported, contract names %d", len(out.Metrics), len(want))
	}
}

func TestEndToEndReportsContractMetrics(t *testing.T) {
	w := corpusWorkload(t, 8)
	refs, err := buildOracle(context.Background(), w.distinct(), 2)
	if err != nil {
		t.Fatal(err)
	}
	dv := &driver{w: w, refs: refs, clients: 2, rng: rand.New(rand.NewPCG(1, 1))}
	res := &result{}
	if err := dv.segment(context.Background(), 500*time.Millisecond, 1, res); err != nil {
		t.Fatal(err)
	}
	out := endToEnd(res, &record{Samples: map[string]int{}})
	if !out.Correct {
		t.Fatalf("run not correct: %d of %d failed: %v", out.Failed, out.Attempted, res.errs)
	}
	checkMetricNames(t, out, contract(t).EndToEnd)
}
