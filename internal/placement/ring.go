// Package placement decides which shard group owns which slice of a
// sharded deployment's global offset space — and lets that decision
// change while the deployment serves.
//
// Three layers, coldest to hottest:
//
//   - Ring is a consistent-hash ring over shard ids (vnodes smooth the
//     distribution). It answers "who should own this partition", and its
//     defining property is minimal movement: adding a shard reassigns
//     only the partitions the new shard's vnodes capture (~1/N of the
//     space), removing one reassigns only the partitions it held.
//   - Layout tracks where every fixed-size partition currently lives
//     (shard + local slot) and plans rebalances: a grow plan moves to the
//     new shards exactly the partitions the ring awards them; a drain
//     plan moves a departing shard's partitions to their ring successors.
//   - Table is the compiled, immutable routing table the facade's hot
//     paths read through an atomic pointer: sorted global ranges, each
//     mapping to a (shard, local offset) pair, with a divide-only fast
//     path while the layout is still the construction-time uniform
//     striping — so a deployment that never rebalances routes bit-for-bit
//     like the fixed arithmetic it replaced.
//
// The package is pure bookkeeping: no locks, no clocks, no I/O. The
// rebalance engine in the repro facade owns mutation ordering and
// publishes compiled Tables; everything here is deterministic in its
// inputs, so seeded tests reproduce exact move plans.
package placement

import "sort"

// DefaultVnodes is the per-shard virtual-node count: enough points that
// a new shard's share of the space concentrates near 1/N with a few
// dozen partitions, while keeping the ring a few hundred points.
const DefaultVnodes = 64

// point is one virtual node: a shard id pinned at a hash position.
type point struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring over shard ids. The zero value is not
// usable; build with NewRing. Not safe for concurrent mutation.
type Ring struct {
	vnodes int
	points []point // sorted by (hash, shard)
}

// NewRing returns an empty ring placing each shard at vnodes positions
// (DefaultVnodes if vnodes <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes}
}

// Add places shard's virtual nodes on the ring. Adding a shard twice is
// a no-op.
func (r *Ring) Add(shard int) {
	for _, p := range r.points {
		if p.shard == shard {
			return
		}
	}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: pointHash(shard, v), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// Remove deletes shard's virtual nodes from the ring.
func (r *Ring) Remove(shard int) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the shard owning key: the first virtual node at or
// clockwise after the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key uint64) (shard int, ok bool) {
	return r.OwnerExcluding(key, nil)
}

// OwnerExcluding returns the first clockwise owner for which skip
// returns false — the successor rule that re-homes a draining shard's
// partitions. A nil skip excludes nothing. ok is false when every
// shard on the ring is excluded (or the ring is empty).
func (r *Ring) OwnerExcluding(key uint64, skip func(shard int) bool) (shard int, ok bool) {
	n := len(r.points)
	if n == 0 {
		return 0, false
	}
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= key })
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if skip == nil || !skip(p.shard) {
			return p.shard, true
		}
	}
	return 0, false
}

// PartKey hashes a partition index onto the ring's key space.
func PartKey(part int) uint64 {
	return fnv1a('p', uint64(part))
}

// pointHash positions virtual node v of a shard — the hash of the
// deterministic spelling "shard-<id>#<v>", so plans are reproducible
// across runs and processes.
func pointHash(shard, v int) uint64 {
	return fnv1a('s', uint64(shard), uint64(v))
}

// fnv1a is FNV-1a over a tag byte and the big-endian bytes of each
// word, finished with a splitmix64-style avalanche — sequential shard
// and partition ids are low-entropy input, and without the finisher
// their hashes cluster instead of interleaving on the ring.
func fnv1a(tag byte, words ...uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h = (h ^ uint64(tag)) * prime
	for _, w := range words {
		for shift := 56; shift >= 0; shift -= 8 {
			h = (h ^ (w >> uint(shift) & 0xff)) * prime
		}
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
