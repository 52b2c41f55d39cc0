package cat_test

// Differential tests for the compiled cat evaluator (compile.go): the AST
// interpreter is the reference implementation, and the compiled form must
// be observationally identical — byte-identical simulation outcomes over
// the litmus corpus for every embedded model, identical per-candidate
// verdicts for randomly generated programs, and identical (error, not
// panic) behaviour on models that fail to evaluate. The corpus outcomes
// are also pinned to a golden file, so a change to the enumeration that
// moves any verdict, count or final state shows up here.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/sim"
)

// corpusTests parses every litmus file in testdata/litmus.
func corpusTests(t *testing.T) []*litmus.Test {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/litmus/*.litmus")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no litmus corpus: %v", err)
	}
	var tests []*litmus.Test
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		tst, err := litmus.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		tests = append(tests, tst)
	}
	return tests
}

func outcomeBytes(t *testing.T, p *exec.Program, checker sim.Checker) []byte {
	t.Helper()
	out, err := sim.Simulate(context.Background(), sim.Request{
		Program: p,
		Checker: checker,
	})
	if err != nil {
		t.Fatalf("%s: %v", checker.Name(), err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/corpus_outcomes.golden from the current outcomes")

// goldenOutcomes pins sim.Simulate's OutcomeJSON for corpus × zoo: one
// line per model and test with the first 16 hex digits of the SHA-256 of
// the outcome's JSON bytes.
const goldenOutcomes = "testdata/corpus_outcomes.golden"

// TestCompiledEquivalenceZoo: for every embedded cat model and every corpus
// test, the compiled evaluator's simulation outcome is byte-identical to
// the interpreter's, and its digest matches the golden file.
func TestCompiledEquivalenceZoo(t *testing.T) {
	tests := corpusTests(t)
	var lines []string
	outcomes := map[string]string{}
	for _, name := range cat.BuiltinNames() {
		m, err := cat.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Compiled(); err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			for _, tst := range tests {
				p, err := exec.Compile(tst)
				if err != nil {
					t.Fatalf("%s: %v", tst.Name, err)
				}
				want := outcomeBytes(t, p, m.Interpreted())
				got := outcomeBytes(t, p, m)
				if string(got) != string(want) {
					t.Errorf("%s: compiled outcome diverges\n got %s\nwant %s", tst.Name, got, want)
				}
				key := name + " " + tst.Name
				lines = append(lines, fmt.Sprintf("%s %x", key, sha256.Sum256(got))[:len(key)+17])
				outcomes[key] = string(got)
			}
		})
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenOutcomes, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenOutcomes)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%s has %d outcomes, the corpus × zoo %d", goldenOutcomes, len(wantLines), len(lines))
	}
	for i, l := range lines {
		if l != wantLines[i] {
			key := l[:strings.LastIndexByte(l, ' ')]
			t.Errorf("outcome moved: %s, want %s\n got %s", l, wantLines[i], outcomes[key])
		}
	}
}

// randModel generates a random (valid) cat program exercising the lowering:
// static and dynamic bindings, recursive groups, shadowing, every operator,
// hoistable static subexpressions, and checks of every kind.
func randModel(t *testing.T, rng *rand.Rand) *cat.Model {
	t.Helper()
	staticAtoms := []string{"po", "po-loc", "id", "addr", "data", "ctrl", "sync", "lwsync", "dmb", "0"}
	dynAtoms := []string{"rf", "rfe", "rfi", "co", "coe", "fr", "fre", "com", "sw"}
	defined := []string{}
	atom := func() string {
		r := rng.Intn(10)
		switch {
		case r < 4 && len(defined) > 0:
			return defined[rng.Intn(len(defined))]
		case r < 7:
			return dynAtoms[rng.Intn(len(dynAtoms))]
		default:
			return staticAtoms[rng.Intn(len(staticAtoms))]
		}
	}
	var genExpr func(depth int) string
	genExpr = func(depth int) string {
		if depth <= 0 {
			return atom()
		}
		switch rng.Intn(8) {
		case 0:
			return "(" + genExpr(depth-1) + " | " + genExpr(depth-1) + ")"
		case 1:
			return "(" + genExpr(depth-1) + " & " + genExpr(depth-1) + ")"
		case 2:
			return "(" + genExpr(depth-1) + " ; " + genExpr(depth-1) + ")"
		case 3:
			return "(" + genExpr(depth-1) + " \\ " + genExpr(depth-1) + ")"
		case 4:
			return "(" + genExpr(depth-1) + ")+"
		case 5:
			return "(" + genExpr(depth-1) + ")?"
		case 6:
			dirs := []string{"RR", "RW", "WR", "WW", "WM", "MM"}
			return dirs[rng.Intn(len(dirs))] + "(" + genExpr(depth-1) + ")"
		default:
			return atom()
		}
	}
	var b strings.Builder
	b.WriteString("\"random\"\n")
	nLets := 2 + rng.Intn(4)
	for i := 0; i < nLets; i++ {
		name := string(rune('a' + i))
		if rng.Intn(4) == 0 {
			// A recursive group; keep the bodies union-shaped so the
			// fixpoint is monotone and converges.
			peer := name + "x"
			b.WriteString("let rec " + name + " = (" + genExpr(1) + " | (" + name + " ; " + name + ") | " + peer + ")")
			b.WriteString(" and " + peer + " = (" + genExpr(1) + " | " + name + ")\n")
			defined = append(defined, name, peer)
		} else {
			b.WriteString("let " + name + " = " + genExpr(2) + "\n")
			defined = append(defined, name)
		}
	}
	nChecks := 1 + rng.Intn(3)
	kinds := []string{"acyclic", "irreflexive", "empty"}
	for i := 0; i < nChecks; i++ {
		b.WriteString(kinds[rng.Intn(len(kinds))] + " " + genExpr(2) + "\n")
	}
	m, err := cat.Compile(b.String())
	if err != nil {
		t.Fatalf("generated program does not compile: %v\n%s", err, b.String())
	}
	return m
}

// TestCompiledEquivalenceRandom: per-candidate differential check of the
// compiled evaluator against the interpreter over randomly generated
// programs. Seeded, so failures reproduce.
func TestCompiledEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCA7))
	entryNames := []string{"mp", "sb", "lb", "iriw", "2+2w", "s", "wrc"}
	var progs []*exec.Program
	for _, n := range entryNames {
		e, ok := catalog.ByName(n)
		if !ok {
			t.Fatalf("catalog test %q missing", n)
		}
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for i := 0; i < 40; i++ {
		m := randModel(t, rng)
		c, err := m.Compiled()
		if err != nil {
			t.Fatalf("program %d: compile: %v", i, err)
		}
		ev := c.NewEvaluator()
		p := progs[i%len(progs)]
		err = p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
			want := m.Check(cd.X)
			got := ev.Check(cd.X)
			if (want.Err != nil) != (got.Err != nil) {
				t.Fatalf("program %d: error divergence: interp=%v compiled=%v", i, want.Err, got.Err)
			}
			if want.Valid != got.Valid ||
				strings.Join(want.FailedChecks, ",") != strings.Join(got.FailedChecks, ",") {
				t.Fatalf("program %d: verdict divergence: interp=%+v compiled=%+v", i, want, got)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNonConvergenceIsError: a model whose let rec oscillates must surface
// as an error from Check (interpreted and compiled) and from Simulate —
// never as a panic escaping into the caller's goroutine. This is the
// regression test for cat evaluation panics leaking into herdd request
// handlers.
func TestNonConvergenceIsError(t *testing.T) {
	// ~bad & rf oscillates between ∅ and rf on any candidate with a
	// non-empty rf: complement is not monotone, so Kleene iteration never
	// settles.
	m, err := cat.Compile("\"diverge\"\nlet rec bad = ~bad & rf\nacyclic bad | po\n")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := catalog.ByName("mp")
	p, err := exec.Compile(e.Test())
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	err = p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
		res := m.Check(cd.X)
		if res.Err == nil {
			return true // rf-less candidates converge; keep looking
		}
		sawErr = true
		if res.Valid || len(res.FailedChecks) != 0 {
			t.Errorf("error result carries a verdict: %+v", res)
		}
		if !strings.Contains(res.Err.Error(), "did not converge") {
			t.Errorf("unexpected error: %v", res.Err)
		}
		// The compiled evaluator must fail identically.
		cres := m.NewEvaluator().Check(cd.X)
		if cres.Err == nil || !strings.Contains(cres.Err.Error(), "did not converge") {
			t.Errorf("compiled evaluator: want convergence error, got %+v", cres)
		}
		// And Explain must surface the same failure as an error.
		if _, xerr := m.Explain(cd.X); xerr == nil {
			t.Error("Explain: want error, got nil")
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawErr {
		t.Fatal("no candidate triggered the divergence")
	}

	// End to end: Simulate aborts the search and returns the error.
	if _, serr := sim.Simulate(context.Background(), sim.Request{
		Program: p,
		Checker: m,
	}); serr == nil || !strings.Contains(serr.Error(), "did not converge") {
		t.Fatalf("Simulate: want convergence error, got %v", serr)
	}
}

// TestCompiledStandaloneExecutions: the evaluator works on executions that
// carry no skeleton Base pointer (rebinding the static program per call)
// and survives being reused across different programs.
func TestCompiledStandaloneExecutions(t *testing.T) {
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	ev := c.NewEvaluator()
	for _, name := range []string{"mp", "sb", "mp+lwsync+addr"} {
		e, ok := catalog.ByName(name)
		if !ok {
			t.Fatalf("catalog test %q missing", name)
		}
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatal(err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
			want := m.Check(cd.X)
			got := ev.Check(cd.X)
			if want.Valid != got.Valid {
				t.Fatalf("%s: verdict divergence: interp=%+v compiled=%+v", name, want, got)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// coherence2x10 is a two-thread, ten-location coherence test: both threads
// store to every location, in different orders, and each loads one
// location. Its executions have more than 64 events, so every relation
// row spans two words.
const coherence2x10 = `PPC coh2x10
{ 0:r1=x0; 0:r2=x1; 0:r3=x2; 0:r4=x3; 0:r5=x4; 0:r6=x5; 0:r7=x6; 0:r8=x7; 0:r9=x8; 0:r10=x9; 1:r1=x0; 1:r2=x1; 1:r3=x2; 1:r4=x3; 1:r5=x4; 1:r6=x5; 1:r7=x6; 1:r8=x7; 1:r9=x8; 1:r10=x9; }
 P0             | P1             ;
 li r30,1       | lwz r31,0(r3)  ;
 stw r30,0(r1)  | li r30,2       ;
 li r30,1       | stw r30,0(r10) ;
 stw r30,0(r2)  | li r30,2       ;
 li r30,1       | stw r30,0(r5)  ;
 stw r30,0(r3)  | li r30,2       ;
 li r30,1       | stw r30,0(r1)  ;
 stw r30,0(r4)  | li r30,2       ;
 li r30,1       | stw r30,0(r8)  ;
 stw r30,0(r5)  | li r30,2       ;
 li r30,1       | stw r30,0(r3)  ;
 stw r30,0(r6)  | li r30,2       ;
 lwz r31,0(r6)  | stw r30,0(r6)  ;
 li r30,1       | li r30,2       ;
 stw r30,0(r7)  | stw r30,0(r9)  ;
 li r30,1       | li r30,2       ;
 stw r30,0(r8)  | stw r30,0(r2)  ;
 li r30,1       | li r30,2       ;
 stw r30,0(r9)  | stw r30,0(r7)  ;
 li r30,1       | li r30,2       ;
 stw r30,0(r10) | stw r30,0(r4)  ;
exists (x5=1 /\ 1:r31=2)
`

// TestCompiledEquivalenceTwoWordRows: the corpus tests all have fewer than
// 64 events, so TestCompiledEquivalenceZoo only exercises single-word
// relation rows. This pins compiled ≡ interpreted on a test whose rows
// span two words, under the models the coherence workloads use.
func TestCompiledEquivalenceTwoWordRows(t *testing.T) {
	tst, err := litmus.Parse(coherence2x10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(tst)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	if err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		events = c.X.N()
		return false
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d events per execution", tst.Name, events)
	if events < 90 {
		t.Fatalf("%s has %d events, want at least 90", tst.Name, events)
	}
	for _, name := range []string{"tso", "power", "arm"} {
		m, err := cat.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeBytes(t, p, m.Interpreted())
		if got := outcomeBytes(t, p, m); string(got) != string(want) {
			t.Errorf("%s: compiled outcome diverges on %d events\n got %s\nwant %s", name, events, got, want)
		}
	}
}
