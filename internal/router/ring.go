package router

import "sort"

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
	points  []uint64
	holders []*worker
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a hashes b without allocating (hash/fnv's interface forces a
// write call; the hot path cannot afford it).
func fnv1a(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// fnv1aSeed extends h with b — used to derive virtual-node points from
// a worker address without building the "addr#i" string.
func fnv1aSeed(h uint64, b []byte) uint64 {
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
		base := fnv1a([]byte(wk.addr))
		for i := 0; i < replicas; i++ {
			var vb [8]byte
			v := uint64(i)
			for j := 0; j < 8; j++ {
				vb[j] = byte(v >> (8 * j))
			}
			r.points = append(r.points, mix64(fnv1aSeed(base, vb[:])))
			r.holders = append(r.holders, wk)
		}
	}
	if len(r.points) == 0 {
		return r
	}
	// Sort points and holders together.
	idx := make([]int, len(r.points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.points[idx[a]] < r.points[idx[b]] })
	pts := make([]uint64, len(idx))
	hds := make([]*worker, len(idx))
	for i, j := range idx {
		pts[i], hds[i] = r.points[j], r.holders[j]
	}
	r.points, r.holders = pts, hds
	return r
}

// owner returns the worker owning tenant, nil when the ring is empty.
// Allocation-free: binary search over the sorted point slice.
func (r *hashRing) owner(tenant []byte) *worker {
	if len(r.points) == 0 {
		return nil
	}
	h := mix64(fnv1a(tenant))
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap: first point clockwise of the top of the circle
	}
	return r.holders[lo]
}
