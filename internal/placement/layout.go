package placement

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoCapacity is returned by PlanDrain when the surviving shards do
// not have enough free partition slots to absorb the draining shard.
var ErrNoCapacity = errors.New("placement: not enough free slots on the surviving shards")

// pageSize is the alignment grain of shard and partition sizes.
const pageSize = 4096

// Move is one planned range migration: copy the global bytes
// [Start, End) from their current home (shard From, local offset
// FromLocal) to shard To at local offset ToLocal, then flip routing.
// Plans coalesce adjacent partitions heading the same way, so one Move
// usually covers several partitions.
type Move struct {
	Start, End int
	From, To   int
	FromLocal  int
	ToLocal    int
}

// Bytes returns the move's payload size.
func (m Move) Bytes() int { return m.End - m.Start }

// slot is a partition's current home: a shard and a local slot index
// (in partition units, not bytes).
type slot struct {
	shard int32
	local int32
}

// Layout is the mutable partition-level placement state from which
// routing Tables are compiled. The global space [0, Parts*PartSize) is
// tiled by fixed-size partitions that never straddle a shard's local
// space; each shard contributes ShardSize/PartSize local slots of
// capacity. The caller (the facade's rebalance engine) serializes all
// mutation; Layout itself holds no locks.
type Layout struct {
	shardSize int
	partSize  int

	parts   []slot  // partition -> current home
	free    [][]int // per shard: free local slots, ascending
	removed []bool  // tombstoned (drained) shards, excluded from planning
	ring    *Ring
}

// NewLayout returns the construction-time layout: shards groups of
// shardSize bytes each (a pageSize multiple), striped in order —
// partition p lives on shard p/perShard at local slot p%perShard. vnodes
// tunes the ring (DefaultVnodes if <= 0).
func NewLayout(shards, shardSize, vnodes int) *Layout {
	if shards < 1 || shardSize < pageSize || shardSize%pageSize != 0 {
		panic(fmt.Sprintf("placement: bad layout geometry shards=%d shardSize=%d", shards, shardSize))
	}
	l := &Layout{
		shardSize: shardSize,
		partSize:  partSizeFor(shardSize),
		ring:      NewRing(vnodes),
	}
	per := shardSize / l.partSize
	l.parts = make([]slot, shards*per)
	for p := range l.parts {
		l.parts[p] = slot{shard: int32(p / per), local: int32(p % per)}
	}
	l.free = make([][]int, shards)
	l.removed = make([]bool, shards)
	for i := 0; i < shards; i++ {
		l.ring.Add(i)
	}
	return l
}

// partSizeFor picks the partition granularity: the largest page multiple
// dividing shardSize that still yields at least 16 partitions per shard
// (so a grow moves a meaningful fraction of the space range by range),
// falling back to a single page when the shard is too small to split 16
// ways evenly.
func partSizeFor(shardSize int) int {
	m := shardSize / pageSize
	for g := m / 16; g >= 1; g-- {
		if m%g == 0 {
			return g * pageSize
		}
	}
	return pageSize
}

// PartSize returns the partition granularity in bytes.
func (l *Layout) PartSize() int { return l.partSize }

// Shards returns the shard slot count, tombstoned slots included.
func (l *Layout) Shards() int { return len(l.free) }

// Serving returns the count of shards still eligible for placement.
func (l *Layout) Serving() int {
	n := 0
	for _, r := range l.removed {
		if !r {
			n++
		}
	}
	return n
}

// Removed reports whether a shard slot has been tombstoned by a drain.
func (l *Layout) Removed(shard int) bool {
	return shard >= 0 && shard < len(l.removed) && l.removed[shard]
}

// Owner returns partition p's current home shard.
func (l *Layout) Owner(p int) int { return int(l.parts[p].shard) }

// Grow appends n empty shard slots (all local slots free), places them
// on the ring, and returns their ids.
func (l *Layout) Grow(n int) []int {
	per := l.shardSize / l.partSize
	var ids []int
	for k := 0; k < n; k++ {
		id := len(l.free)
		slots := make([]int, per)
		for i := range slots {
			slots[i] = i
		}
		l.free = append(l.free, slots)
		l.removed = append(l.removed, false)
		l.ring.Add(id)
		ids = append(ids, id)
	}
	return ids
}

// Remove tombstones an empty shard slot: off the ring, excluded from all
// future planning. It panics if the shard still owns partitions — drain
// first (PlanDrain + Apply).
func (l *Layout) Remove(shard int) {
	for p, s := range l.parts {
		if int(s.shard) == shard {
			panic(fmt.Sprintf("placement: removing shard %d still owning partition %d", shard, p))
		}
	}
	l.removed[shard] = true
	l.free[shard] = nil
	l.ring.Remove(shard)
}

// PlanGrow plans the minimal-move rebalance after Grow: every partition
// whose ring owner is one of the newly added shards moves there (slots
// allowing); everything else stays put. With the added shards holding
// ~added/total of the ring, the plan moves ~that fraction of the space.
// Destination slots are allocated here (ascending), so the returned
// moves must each be Apply'd (or the layout rebuilt) — a plan is not a
// dry run. Adjacent partitions heading the same way coalesce.
func (l *Layout) PlanGrow(added []int) []Move {
	isNew := map[int]bool{}
	for _, s := range added {
		isNew[s] = true
	}
	var moves []Move
	for p := range l.parts {
		owner, ok := l.ring.Owner(PartKey(p))
		if !ok || !isNew[owner] || int(l.parts[p].shard) == owner {
			continue
		}
		if m, ok := l.reserve(p, owner); ok {
			moves = append(moves, m)
		}
	}
	return coalesce(moves)
}

// PlanDrain plans moving every partition off shard: each goes to its
// ring successor (the first clockwise owner that is neither the draining
// shard nor tombstoned), falling back to any serving shard with a free
// slot. ErrNoCapacity if the survivors cannot absorb it all; the layout
// is left unchanged in that case.
func (l *Layout) PlanDrain(shard int) ([]Move, error) {
	needed := 0
	for _, s := range l.parts {
		if int(s.shard) == shard {
			needed++
		}
	}
	avail := 0
	for i, f := range l.free {
		if i != shard && !l.removed[i] {
			avail += len(f)
		}
	}
	if avail < needed {
		return nil, fmt.Errorf("placement: draining shard %d needs %d slots, %d free elsewhere: %w",
			shard, needed, avail, ErrNoCapacity)
	}
	skip := func(s int) bool { return s == shard || l.Removed(s) }
	var moves []Move
	for p := range l.parts {
		if int(l.parts[p].shard) != shard {
			continue
		}
		if owner, ok := l.ring.OwnerExcluding(PartKey(p), skip); ok {
			if m, mok := l.reserve(p, owner); mok {
				moves = append(moves, m)
				continue
			}
		}
		// Successor full (or no ring successor): first serving shard
		// with room.
		placed := false
		for s := range l.free {
			if skip(s) {
				continue
			}
			if m, mok := l.reserve(p, s); mok {
				moves = append(moves, m)
				placed = true
				break
			}
		}
		if !placed {
			// The capacity pre-check makes this unreachable; keep the
			// invariant loud rather than silently leaving data behind.
			panic(fmt.Sprintf("placement: no slot for partition %d despite capacity check", p))
		}
	}
	return coalesce(moves), nil
}

// reserve allocates the lowest free slot on dst for partition p and
// returns the single-partition move. ok is false when dst has no room
// (the partition then stays where it is).
func (l *Layout) reserve(p, dst int) (Move, bool) {
	if dst < 0 || dst >= len(l.free) || len(l.free[dst]) == 0 {
		return Move{}, false
	}
	lo := l.free[dst][0]
	l.free[dst] = l.free[dst][1:]
	cur := l.parts[p]
	return Move{
		Start:     p * l.partSize,
		End:       (p + 1) * l.partSize,
		From:      int(cur.shard),
		FromLocal: int(cur.local) * l.partSize,
		To:        dst,
		ToLocal:   lo * l.partSize,
	}, true
}

// coalesce merges moves that are adjacent in global space with the same
// endpoints and contiguous local offsets.
func coalesce(moves []Move) []Move {
	var out []Move
	for _, m := range moves {
		if n := len(out); n > 0 {
			prev := &out[n-1]
			run := prev.End - prev.Start
			if m.Start == prev.End && m.From == prev.From && m.To == prev.To &&
				m.FromLocal == prev.FromLocal+run && m.ToLocal == prev.ToLocal+run {
				prev.End = m.End
				continue
			}
		}
		out = append(out, m)
	}
	return out
}

// Apply commits one completed move into the layout: the covered
// partitions re-home to their reserved destination slots and the vacated
// source slots return to the free pool.
func (l *Layout) Apply(m Move) {
	p0, p1 := m.Start/l.partSize, m.End/l.partSize
	for p := p0; p < p1; p++ {
		old := l.parts[p]
		l.parts[p] = slot{
			shard: int32(m.To),
			local: int32((m.ToLocal + (p-p0)*l.partSize) / l.partSize),
		}
		l.release(int(old.shard), int(old.local))
	}
}

// release returns a local slot to a shard's free pool, keeping it
// ascending.
func (l *Layout) release(shard, lo int) {
	f := l.free[shard]
	i := sort.SearchInts(f, lo)
	f = append(f, 0)
	copy(f[i+1:], f[i:])
	f[i] = lo
	l.free[shard] = f
}

// Compile builds the immutable routing table for the current placement,
// merging contiguous partitions: an untouched layout compiles to one range
// per shard.
func (l *Layout) Compile(epoch uint64) *Table {
	var ranges []Range
	for p, s := range l.parts {
		start := p * l.partSize
		local := int(s.local) * l.partSize
		if n := len(ranges); n > 0 {
			prev := &ranges[n-1]
			if prev.Shard == int(s.shard) && prev.End == start &&
				prev.Local+(prev.End-prev.Start) == local {
				prev.End += l.partSize
				continue
			}
		}
		ranges = append(ranges, Range{
			Start: start, End: start + l.partSize,
			Shard: int(s.shard), Local: local,
		})
	}
	return FromRanges(epoch, ranges)
}
