package router

import (
	"encoding/binary"
	"sort"
)

// hashRing is a consistent-hash ring over the live workers: each worker
// contributes ringReplicas virtual nodes at FNV-1a points on the uint64
// circle, and a tenant is owned by the first virtual node clockwise of
// its hash. Membership changes rebuild the ring (it is tiny — workers ×
// replicas entries) and move only the ~1/N keyspace adjacent to the
// changed worker, which is the whole reason for hashing instead of
// modulo placement: a worker death rehashes its tenants and nobody
// else's.
//
// The ring is immutable after build and swapped atomically, so the hot
// path reads it lock-free; owner() is allocation-free.
type hashRing struct {
	nodes []vnode // sorted by point
}

// vnode is one virtual node: a point on the circle and its worker.
type vnode struct {
	point uint64
	wk    *worker
}

// fnvOffset and fnvPrime are FNV-1a's 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a extends the FNV-1a hash h (fnvOffset to start one) with b,
// without allocating (hash/fnv's interface forces a write call; the hot
// path cannot afford it). Extending a worker address's hash derives its
// virtual-node points without building an "addr#i" string.
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// mix64 is a murmur-style finalizer. Raw FNV-1a barely avalanches its
// final bytes — keys differing only in a trailing digit land within
// ~2^48 of each other, clustering a whole tenant family onto one arc of
// the ring — so every hash is finalized before it becomes a circle
// position.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// buildRing constructs a ring over the live subset of workers.
func buildRing(workers []*worker, replicas int) *hashRing {
	r := &hashRing{}
	for _, wk := range workers {
		if !wk.live() {
			continue
		}
		base := fnv1a(fnvOffset, []byte(wk.addr))
		for i := 0; i < replicas; i++ {
			var vb [8]byte
			binary.LittleEndian.PutUint64(vb[:], uint64(i))
			r.nodes = append(r.nodes, vnode{mix64(fnv1a(base, vb[:])), wk})
		}
	}
	sort.Slice(r.nodes, func(a, b int) bool { return r.nodes[a].point < r.nodes[b].point })
	return r
}

// owner returns the worker owning tenant, nil when the ring is empty.
// Allocation-free: binary search over the sorted points.
func (r *hashRing) owner(tenant []byte) *worker {
	if len(r.nodes) == 0 {
		return nil
	}
	h := mix64(fnv1a(fnvOffset, tenant))
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].point >= h })
	if i == len(r.nodes) {
		i = 0 // wrap: first point clockwise of the top of the circle
	}
	return r.nodes[i].wk
}
