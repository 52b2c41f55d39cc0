package rel

// Reference tests for the in-place kernels and unit tests for the Arena
// pool. The functional operators are thin wrappers over these kernels, so
// the kernels are pinned to the independent map-based reference of
// rel_test.go (naiveSeq, naivePlus and plain pair predicates), across
// universe sizes that straddle the 64-bit row-word boundaries.

import (
	"fmt"
	"math/rand"
	"testing"
)

type kernelCase struct {
	name string
	a, b Rel
}

// kernelCases returns random relations at every size and density, plus
// hand-built shapes: isolated nodes, self-loops, the full relation and a
// single long chain.
func kernelCases() []kernelCase {
	rng := rand.New(rand.NewSource(42))
	var cases []kernelCase
	for _, n := range []int{0, 1, 63, 64, 65, 96, 128, 129, 200} {
		for _, d := range []float64{0, 0.02, 0.2, 0.8} {
			cases = append(cases, kernelCase{fmt.Sprintf("n=%d/d=%g", n, d),
				randomRel(rng, n, d), randomRel(rng, n, d)})
		}
		chain, loops, sparse := New(n), Identity(n), New(n)
		for i := 0; i+1 < n; i++ {
			chain.Add(i, i+1)
		}
		for i := 0; i+3 < n; i += 4 {
			loops.Add(i, i+3)  // self-loops plus a few real edges
			sparse.Add(i+3, i) // every other node stays isolated
		}
		cases = append(cases,
			kernelCase{fmt.Sprintf("n=%d/chain", n), chain, chain.Inverse()},
			kernelCase{fmt.Sprintf("n=%d/self-loops", n), loops, chain},
			kernelCase{fmt.Sprintf("n=%d/isolated", n), sparse, sparse},
			kernelCase{fmt.Sprintf("n=%d/full", n), Full(n), sparse})
	}
	return cases
}

// naiveWhere is the reference relation {(i,j) ∈ n×n | keep(i,j)}.
func naiveWhere(n int, keep func(i, j int) bool) naiveRel {
	out := naiveRel{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if keep(i, j) {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

func TestKernelsMatchReference(t *testing.T) {
	for _, c := range kernelCases() {
		a, b, n := c.a, c.b, c.a.N()
		an, bn := a.toNaive(), b.toNaive()
		src, dst := NewSet(n), NewSet(n)
		for i := 0; i < n; i++ {
			if i%3 != 0 {
				src.Add(i)
			}
			if i%2 == 0 {
				dst.Add(i)
			}
		}
		d := New(n)
		check := func(kernel string, want naiveRel) {
			t.Helper()
			if !equalNaive(d.toNaive(), want) {
				t.Errorf("%s: %s diverges from the reference", c.name, kernel)
			}
		}
		dirty := func() { d.CopyFrom(Full(n)) } // outputs must fully overwrite

		dirty()
		d.SeqInto(a, b)
		check("SeqInto", naiveSeq(an, bn))
		dirty()
		d.SeqInto(a, a)
		check("SeqInto aliased operands", naiveSeq(an, an))
		dirty()
		d.InverseInto(a)
		check("InverseInto", naiveWhere(n, func(i, j int) bool { return an[[2]int{j, i}] }))

		d.CopyFrom(a)
		d.PlusInPlace()
		plus := naivePlus(an)
		check("PlusInPlace", plus)
		d.UnionIdentity()
		check("PlusInPlace+UnionIdentity", naiveWhere(n, func(i, j int) bool { return i == j || plus[[2]int{i, j}] }))
		d.CopyFrom(a)
		d.UnionIdentity()
		check("UnionIdentity", naiveWhere(n, func(i, j int) bool { return i == j || an[[2]int{i, j}] }))

		d.CopyFrom(a)
		d.UnionInto(b)
		check("UnionInto", naiveWhere(n, func(i, j int) bool { return an[[2]int{i, j}] || bn[[2]int{i, j}] }))
		d.CopyFrom(a)
		d.InterInto(b)
		check("InterInto", naiveWhere(n, func(i, j int) bool { return an[[2]int{i, j}] && bn[[2]int{i, j}] }))
		d.CopyFrom(a)
		d.DiffInto(b)
		check("DiffInto", naiveWhere(n, func(i, j int) bool { return an[[2]int{i, j}] && !bn[[2]int{i, j}] }))
		d.CopyFrom(a)
		d.ComplementInPlace()
		check("ComplementInPlace", naiveWhere(n, func(i, j int) bool { return !an[[2]int{i, j}] }))
		d.CopyFrom(a)
		d.RestrictInPlace(src, dst)
		check("RestrictInPlace", naiveWhere(n, func(i, j int) bool { return an[[2]int{i, j}] && src.Has(i) && dst.Has(j) }))
		d.Clear()
		check("Clear", naiveRel{})
	}
}

// TestKernelsAllocFree pins the closure and composition kernels to zero
// allocations at one-, two- and four-word rows: the cat check runs them
// once per candidate execution.
func TestKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{64, 96, 256} {
		a, b, d := randomRel(rng, n, 0.05), randomRel(rng, n, 0.05), New(n)
		kernels := map[string]func(){
			"PlusInPlace": func() { d.CopyFrom(a); d.PlusInPlace() },
			"SeqInto":     func() { d.SeqInto(a, b) },
		}
		for name, f := range kernels {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("n=%d: %s allocates %.1f times per call, want 0", n, name, allocs)
			}
		}
	}
}

func TestInverseIntoAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InverseInto with aliased destination did not panic")
		}
	}()
	a := New(4)
	a.Add(0, 1)
	a.InverseInto(a)
}

func TestSeqIntoAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SeqInto with aliased destination did not panic")
		}
	}()
	a := New(4)
	a.Add(0, 1)
	b := New(4)
	b.Add(1, 2)
	a.SeqInto(a, b)
}

func TestForEachPair(t *testing.T) {
	a := New(70) // spans two words per row
	pairs := [][2]int{{0, 0}, {0, 63}, {0, 64}, {3, 69}, {69, 0}}
	for _, p := range pairs {
		a.Add(p[0], p[1])
	}
	var got [][2]int
	a.ForEachPair(func(i, j int) { got = append(got, [2]int{i, j}) })
	if len(got) != len(pairs) {
		t.Fatalf("ForEachPair visited %d pairs, want %d", len(got), len(pairs))
	}
	for k, p := range pairs {
		if got[k] != p {
			t.Fatalf("pair %d: got %v, want %v", k, got[k], p)
		}
	}
}

func TestArenaReuse(t *testing.T) {
	ar := NewArena()
	r1 := ar.Get(8)
	r1.Add(1, 2)
	ar.Put(r1)
	r2 := ar.Get(8)
	if !r2.IsEmpty() {
		t.Fatal("arena returned a dirty buffer")
	}
	// Same words, same backing array: the buffer really was recycled.
	r2.Add(3, 4)
	if r1.Has(3, 4) != true {
		t.Fatal("expected r1 and r2 to share backing after recycling")
	}
	// Size change drops the pool and serves fresh buffers.
	r3 := ar.Get(16)
	if r3.N() != 16 || !r3.IsEmpty() {
		t.Fatal("arena did not resize cleanly")
	}
	// Stale Put of a wrong-size buffer is dropped, not pooled.
	ar.Put(r2)
	r4 := ar.Get(16)
	if r4.N() != 16 {
		t.Fatal("arena pooled a wrong-size buffer")
	}
}

func TestArenaNilSafe(t *testing.T) {
	var ar *Arena
	r := ar.Get(4)
	if r.N() != 4 {
		t.Fatal("nil arena Get did not allocate")
	}
	ar.Put(r) // must not panic
}

func TestAcyclicScratchMatchesAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc DFSScratch
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		r := randomRel(rng, n, 0.15)
		if r.AcyclicScratch(&sc) != r.Acyclic() {
			t.Fatalf("trial %d: AcyclicScratch diverges from Acyclic", trial)
		}
		w := r.CycleWitness()
		if (w == nil) != r.Acyclic() {
			t.Fatalf("trial %d: CycleWitness presence disagrees with Acyclic", trial)
		}
		for i := 0; i < len(w); i++ {
			if !r.Has(w[i], w[(i+1)%len(w)]) {
				t.Fatalf("trial %d: witness %v is not a cycle", trial, w)
			}
		}
	}
}
