package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"sort"

	"herdcats/internal/wire"
)

// routeKey is a request's placement and coalescing key: a SHA-256 over
// the litmus text, the model spec and the budget exactly as sent. It is
// SHA-256, not a 64-bit hash, because coalescing trusts it: a collision
// would hand one request another's verdict.
func routeKey(litmus string, model wire.ModelSpec, b wire.BudgetSpec) string {
	buf := make([]byte, 0, len(litmus)+len(model.Name)+len(model.Cat)+6*binary.MaxVarintLen64)
	for _, field := range []string{litmus, model.Name, model.Cat} {
		buf = binary.AppendUvarint(buf, uint64(len(field)))
		buf = append(buf, field...)
	}
	for _, bound := range []int64{int64(b.MaxCandidates), int64(b.MaxTracesPerThread), b.TimeoutMS} {
		buf = binary.AppendVarint(buf, bound)
	}
	sum := sha256.Sum256(buf)
	return string(sum[:])
}

// rendezvous ranks backend names for a key by highest-random-weight
// (rendezvous) hashing: every (key, backend) pair gets an independent
// pseudo-random weight, and the backends are returned in descending
// weight order. The first entry is the key's home; the rest are its
// deterministic failover sequence. Rendezvous hashing keeps the mapping
// stable under membership change — removing one backend reroutes only
// the keys that lived on it — which is what keeps each backend's verdict
// cache hot across fleet reconfigurations.
func rendezvous(key string, names []string) []string {
	type scored struct {
		name   string
		weight uint64
	}
	ranked := make([]scored, len(names))
	for i, name := range names {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{0}) // keep "ab"+"c" distinct from "a"+"bc"
		h.Write([]byte(name))
		// FNV avalanches poorly for near-identical inputs (backend names
		// differ in a byte or two), which visibly skews the spread; a
		// splitmix64-style finaliser fixes the high bits the sort uses.
		ranked[i] = scored{name: name, weight: mix64(h.Sum64())}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].weight != ranked[j].weight {
			return ranked[i].weight > ranked[j].weight
		}
		return ranked[i].name < ranked[j].name // total order even on hash ties
	})
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.name
	}
	return out
}

// mix64 is the splitmix64 finaliser: a cheap bijection whose output bits
// all depend on all input bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
