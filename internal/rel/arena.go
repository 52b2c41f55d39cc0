package rel

// Arena pools Rel buffers over a single universe size so hot loops —
// checking thousands of candidate executions of the same skeleton — reuse
// the same handful of bit matrices instead of allocating fresh ones per
// candidate. One arena serves one goroutine; it is not safe for concurrent
// use. All methods are nil-safe: a nil *Arena degrades to plain New, which
// lets one code path serve both pooled and unpooled callers.
//
// Discipline: Get hands out an empty relation the caller owns; Put returns
// it to the pool. Never Put a relation twice, never Put a relation shared
// with a longer-lived structure (an Execution field, a builtin), and never
// use a relation after Put — the next Get may clear and reuse its buffer.
type Arena struct {
	n    int
	free []Rel
}

// NewArena returns an empty arena. The universe size is fixed by the first
// Get; a Get at a different size drops the pooled buffers and re-anchors.
func NewArena() *Arena {
	return &Arena{n: -1}
}

// Get returns an empty relation over n elements, reusing a pooled buffer
// when one is available. Nil-safe: a nil arena allocates via New.
func (a *Arena) Get(n int) Rel {
	if a == nil {
		return New(n)
	}
	if a.n != n {
		a.n = n
		a.free = a.free[:0]
	}
	if k := len(a.free); k > 0 {
		r := a.free[k-1]
		a.free = a.free[:k-1]
		r.Clear()
		return r
	}
	return New(n)
}

// Put returns r to the pool for reuse by a later Get. Relations of a
// different universe size are dropped; a nil arena drops everything.
func (a *Arena) Put(r Rel) {
	if a == nil || r.n != a.n {
		return
	}
	a.free = append(a.free, r)
}
