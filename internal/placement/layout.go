// Package placement decides which shard group owns which slice of a
// sharded deployment's global offset space — and lets that decision
// change while the deployment serves.
//
// Two layers:
//
//   - Layout is the directory: where every fixed-size partition lives
//     (shard + local slot). Its one planner evens out the serving shards'
//     partition counts: a grow plan moves partitions from the fullest
//     shards to the emptiest until the counts differ by at most one; a
//     drain plan moves a leaving shard's partitions, and only those, to
//     the emptiest survivors.
//   - Table is the compiled, immutable routing table the facade's hot
//     paths read through an atomic pointer: sorted global ranges, each
//     mapping to a (shard, local offset) pair. Contiguous partitions
//     merge, so a deployment that never rebalances routes through one
//     range per shard.
//
// The package is pure bookkeeping: no locks, no clocks, no I/O. The
// rebalance engine in the repro facade owns mutation ordering and
// publishes compiled Tables; everything here is deterministic in its
// inputs, so tests reproduce exact move plans.
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
}

// NewLayout returns the construction-time layout: shards groups of
// shardSize bytes each (a pageSize multiple), striped in order —
// partition p lives on shard p/perShard at local slot p%perShard.
// vnodes is unused, kept so that existing callers compile.
func NewLayout(shards, shardSize, vnodes int) *Layout {
	if shards < 1 || shardSize < pageSize || shardSize%pageSize != 0 {
		panic(fmt.Sprintf("placement: bad layout geometry shards=%d shardSize=%d", shards, shardSize))
	}
	l := &Layout{
		shardSize: shardSize,
		partSize:  partSizeFor(shardSize),
	}
	per := shardSize / l.partSize
	l.parts = make([]slot, shards*per)
	for p := range l.parts {
		l.parts[p] = slot{shard: int32(p / per), local: int32(p % per)}
	}
	l.free = make([][]int, shards)
	l.removed = make([]bool, shards)
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

// Grow appends n empty shard slots (all local slots free) and returns
// their ids.
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
		ids = append(ids, id)
	}
	return ids
}

// Remove tombstones an empty shard slot, excluded from all future
// planning. It panics if the shard still owns partitions — drain
// first (PlanDrain + Apply).
func (l *Layout) Remove(shard int) {
	for p, s := range l.parts {
		if int(s.shard) == shard {
			panic(fmt.Sprintf("placement: removing shard %d still owning partition %d", shard, p))
		}
	}
	l.removed[shard] = true
	l.free[shard] = nil
}

// PlanGrow plans the moves that even out the serving shards: partitions
// leave the fullest shards for the emptiest until the counts differ by at
// most one. Destination slots are allocated here (ascending), so the
// returned moves must each be Apply'd (or the layout rebuilt) — a plan is
// not a dry run. Adjacent partitions heading the same way coalesce.
func (l *Layout) PlanGrow() []Move {
	moves, _ := l.plan(-1)
	return moves
}

// PlanDrain plans moving every partition off shard, and nothing else, each
// to the serving shard holding the fewest partitions at the time.
// ErrNoCapacity if the survivors cannot absorb it all; the layout is left
// unchanged in that case.
func (l *Layout) PlanDrain(shard int) ([]Move, error) {
	moves, stranded := l.plan(shard)
	if stranded > 0 {
		return nil, fmt.Errorf("placement: draining shard %d strands %d partitions: %w", shard, stranded, ErrNoCapacity)
	}
	return moves, nil
}

// plan is the one planner; leaving is the draining shard, or -1 for a
// grow. Its counting pass moves one partition at a time from the donor —
// the leaving shard, else the serving shard holding the most — to the
// serving shard holding the fewest that has a free slot, ties to the lower
// id. A grow stops once the counts differ by at most one, a drain once the
// leaving shard is empty; a drain that runs out of free slots first plans
// nothing and reports how many partitions it stranded. The hand-out pass
// then gives each donor's partitions away in ascending order, lower
// receivers first, so each donor → receiver run coalesces into one Move.
func (l *Layout) plan(leaving int) (moves []Move, stranded int) {
	count := make([]int, len(l.free))
	for _, s := range l.parts {
		count[s.shard]++
	}
	room := make([]int, len(l.free))
	for s, f := range l.free {
		room[s] = len(f)
	}
	gives := make([][]int, len(l.free)) // per donor: its receivers, one per partition
	for {
		d, r := leaving, -1
		for s := range count {
			if l.removed[s] || s == leaving {
				continue
			}
			if leaving < 0 && (d < 0 || count[s] > count[d]) {
				d = s
			}
			if room[s] > 0 && (r < 0 || count[s] < count[r]) {
				r = s
			}
		}
		if r < 0 || count[d] == 0 || leaving < 0 && count[d]-count[r] <= 1 {
			break
		}
		count[d]--
		count[r]++
		room[r]--
		gives[d] = append(gives[d], r)
	}
	if leaving >= 0 && count[leaving] > 0 {
		return nil, count[leaving]
	}
	for _, g := range gives {
		sort.Ints(g)
	}
	for p, s := range l.parts {
		g := gives[s.shard]
		if len(g) == 0 {
			continue
		}
		// The receiver's lowest free slot; a partition that extends the
		// last move on both ends joins it.
		r, lo := g[0], l.free[g[0]][0]
		gives[s.shard], l.free[r] = g[1:], l.free[r][1:]
		m := Move{Start: p * l.partSize, End: (p + 1) * l.partSize,
			From: int(s.shard), FromLocal: int(s.local) * l.partSize, To: r, ToLocal: lo * l.partSize}
		if n := len(moves) - 1; n >= 0 && moves[n].End == m.Start && moves[n].From == m.From && moves[n].To == m.To &&
			moves[n].FromLocal+moves[n].Bytes() == m.FromLocal && moves[n].ToLocal+moves[n].Bytes() == m.ToLocal {
			moves[n].End = m.End
			continue
		}
		moves = append(moves, m)
	}
	return moves, 0
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
