package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// cohShape is one size class of the coherence-batch generator: T threads
// each store once to each of L shared locations and load once. Every
// location then carries T same-location stores (T! coherence orders) and
// every load may read any of the T+1 values (T stores and the initial 0),
// so a test has (T+1)^T skeletons with (T!)^L candidate executions each:
// the rf/co walk and the model check dominate, not per-test setup.
type cohShape struct{ T, L int }

// candidates is the exact candidate count of the shape (checked against
// the enumerator in the bench's tests).
func (s cohShape) candidates() int {
	fact := 1
	for i := 2; i <= s.T; i++ {
		fact *= i
	}
	n := 1
	for i := 0; i < s.L; i++ {
		n *= fact
	}
	for i := 0; i < s.T; i++ {
		n *= s.T + 1
	}
	return n
}

// cohShapes spans 10²–10⁴ candidates roughly evenly in log scale, in
// ascending order. Every corpus holds each shape the same number of times,
// so two seeds differ in values, orders, load placement and conditions but
// not in the amount of work — which is what keeps the run-to-run spread
// small.
var cohShapes = []cohShape{
	{2, 4},  // 144
	{2, 5},  // 288
	{3, 1},  // 384
	{2, 6},  // 576
	{2, 7},  // 1,152
	{3, 2},  // 2,304
	{2, 9},  // 4,608
	{2, 10}, // 9,216
}

// cohModels are the built-in models the coherence batches run under:
// a cheap model (tso) and the two expensive ones (power, arm).
var cohModels = []string{"tso", "power", "arm"}

// genCoherence returns perShape tests of every shape, smallest shape
// first — the order a campaign wanting early results would send them in,
// and one that makes each index's latency a property of the work rather
// than of a shuffle. The same seed gives byte-identical sources.
func genCoherence(seed uint64, perShape int) []string {
	rng := rand.New(rand.NewPCG(seed, 0x636f6865726e6365)) // "coherence"
	var out []string
	for _, sh := range cohShapes {
		for k := 0; k < perShape; k++ {
			out = append(out, genCohTest(rng, sh, fmt.Sprintf("coh%dx%d-%x-%d", sh.T, sh.L, seed, k)))
		}
	}
	return out
}

// genCohTest writes one PPC test of the given shape. Each location's
// stores carry a seeded permutation of 1..T across the threads (so the
// value domain stays {0..T} and every read value is realisable), each
// thread stores in a seeded location order, and its load sits at a seeded
// position reading a seeded location.
func genCohTest(rng *rand.Rand, sh cohShape, name string) string {
	locs := make([]string, sh.L)
	for j := range locs {
		locs[j] = fmt.Sprintf("x%d", j)
	}
	// val[j][t] is the value thread t stores to location j.
	val := make([][]int, sh.L)
	for j := range val {
		val[j] = make([]int, sh.T)
		for t, v := range rng.Perm(sh.T) {
			val[j][t] = v + 1
		}
	}
	loadLoc := make([]int, sh.T)
	cols := make([][]string, sh.T)
	for t := 0; t < sh.T; t++ {
		order := rng.Perm(sh.L)
		loadAt := rng.IntN(sh.L + 1) // the load goes before store loadAt
		loadLoc[t] = rng.IntN(sh.L)
		for i, j := range order {
			if i == loadAt {
				cols[t] = append(cols[t], fmt.Sprintf("lwz r31,0(r%d)", loadLoc[t]+1))
			}
			cols[t] = append(cols[t], fmt.Sprintf("li r30,%d", val[j][t]), fmt.Sprintf("stw r30,0(r%d)", j+1))
		}
		if loadAt == sh.L {
			cols[t] = append(cols[t], fmt.Sprintf("lwz r31,0(r%d)", loadLoc[t]+1))
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "PPC %s\n{", name)
	for t := 0; t < sh.T; t++ {
		for j, l := range locs {
			fmt.Fprintf(&b, " %d:r%d=%s;", t, j+1, l)
		}
	}
	b.WriteString(" }\n")
	head := make([]string, sh.T)
	for t := range head {
		head[t] = fmt.Sprintf("P%d", t)
	}
	writeRow(&b, head)
	for r := range cols[0] {
		row := make([]string, sh.T)
		for t := range row {
			row[t] = cols[t][r]
		}
		writeRow(&b, row)
	}
	// The condition names one final location value and one thread's load,
	// drawn from values the test can produce.
	j, t := rng.IntN(sh.L), rng.IntN(sh.T)
	fmt.Fprintf(&b, "exists (%s=%d /\\ %d:r31=%d)\n", locs[j], rng.IntN(sh.T)+1, t, rng.IntN(sh.T+1))
	return b.String()
}

func writeRow(b *strings.Builder, cells []string) {
	b.WriteString(" " + strings.Join(cells, " | ") + " ;\n")
}
