package placement

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// counts returns each shard slot's partition count.
func (l *Layout) counts() []int {
	c := make([]int, l.Shards())
	for p := range l.parts {
		c[l.Owner(p)]++
	}
	return c
}

// TestLayoutPlanProperties drives seeded random sequences of Grow,
// PlanGrow and PlanDrain + Remove, applying every plan, and checks the
// planner's contract at each step: a grow leaves the serving shards'
// counts within one of each other and moves exactly the partitions above
// the balanced targets (the fullest shards keep the spare ones); a drain
// moves exactly the leaving shard's partitions and keeps balanced counts
// balanced; no move lands on a removed or leaving shard; and
// ErrNoCapacity leaves the layout as it was.
func TestLayoutPlanProperties(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	refused := 0
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		l := NewLayout(1+r.Intn(4), (16+r.Intn(3)*8)*pageSize, 0)
		part := l.PartSize()
		// spread is max - min over the serving shards' counts.
		spread := func() int {
			lo, hi := len(l.parts), 0
			for s, n := range l.counts() {
				if !l.Removed(s) {
					lo, hi = min(lo, n), max(hi, n)
				}
			}
			return hi - lo
		}
		apply := func(op string, moves []Move, leaving int) int {
			moved := 0
			for _, m := range moves {
				if l.Removed(m.To) || m.To == leaving || m.From == m.To {
					t.Fatalf("seed %d: %s move %+v lands on shard %d (removed %v)", seed, op, m, m.To, l.Removed(m.To))
				}
				moved += m.Bytes() / part
				l.Apply(m)
			}
			return moved
		}
		for step := 0; step < 12; step++ {
			switch op := r.Intn(3); {
			case op == 0 && l.Shards() < 12:
				l.Grow(1 + r.Intn(3))
			case op == 1:
				// The balanced targets: q each, q+1 for the rem fullest.
				var serving []int
				for s := 0; s < l.Shards(); s++ {
					if !l.Removed(s) {
						serving = append(serving, s)
					}
				}
				c := l.counts()
				sort.SliceStable(serving, func(i, j int) bool { return c[serving[i]] > c[serving[j]] })
				q, rem := len(l.parts)/len(serving), len(l.parts)%len(serving)
				want := 0
				for i, s := range serving {
					target := q
					if i < rem {
						target++
					}
					want += max(0, c[s]-target)
				}
				if got := apply("grow", l.PlanGrow(), -1); got != want {
					t.Fatalf("seed %d: grow moved %d partitions, want %d (counts %v)", seed, got, want, c)
				}
				if d := spread(); d > 1 {
					t.Fatalf("seed %d: grown counts %v spread %d", seed, l.counts(), d)
				}
			case op == 2 && l.Serving() > 1:
				leaving := r.Intn(l.Shards())
				if l.Removed(leaving) {
					continue
				}
				before, balanced := fmt.Sprint(l.parts, l.free, l.removed), spread() <= 1
				has := l.counts()[leaving]
				moves, err := l.PlanDrain(leaving)
				if errors.Is(err, ErrNoCapacity) {
					refused++
					if after := fmt.Sprint(l.parts, l.free, l.removed); after != before {
						t.Fatalf("seed %d: a refused drain changed the layout", seed)
					}
					continue
				} else if err != nil {
					t.Fatal(err)
				}
				if got := apply("drain", moves, leaving); got != has {
					t.Fatalf("seed %d: draining shard %d moved %d partitions, it held %d", seed, leaving, got, has)
				}
				l.Remove(leaving)
				if d := spread(); balanced && d > 1 {
					t.Fatalf("seed %d: drain unbalanced counts %v", seed, l.counts())
				}
			}
		}
	}
	if refused == 0 {
		t.Fatal("no sequence ran out of capacity; ErrNoCapacity went untested")
	}
}

func TestTableUniformMatchesStride(t *testing.T) {
	const stride = 64 << 10
	tb := NewLayout(4, stride, 0).Compile(1)
	for s := 0; s < 4; s++ {
		for _, off := range []int{s * stride, s*stride + 1, s*stride + 17, (s+1)*stride - 1} {
			sh, lo, run := tb.Locate(off)
			if sh != off/stride || lo != off%stride || run != stride-off%stride {
				t.Fatalf("Locate(%d) = (%d,%d,%d), want (%d,%d,%d)",
					off, sh, lo, run, off/stride, off%stride, stride-off%stride)
			}
		}
	}
}

func TestLayoutCompileUniform(t *testing.T) {
	const shardSize = 256 << 10
	l := NewLayout(4, shardSize, 0)
	tb := l.Compile(1)
	if tb.Epoch != 1 {
		t.Fatalf("fresh layout compiled at epoch %d", tb.Epoch)
	}
	if n := len(tb.ranges); n != 4 {
		t.Fatalf("fresh four-shard layout compiled to %d ranges, want 4", n)
	}
	if l.PartSize()%pageSize != 0 || shardSize%l.PartSize() != 0 {
		t.Fatalf("partition size %d does not tile the shard", l.PartSize())
	}
	if per := shardSize / l.PartSize(); per < 16 {
		t.Fatalf("only %d partitions per shard", per)
	}
}

func TestLayoutGrowPlanApplyCompile(t *testing.T) {
	const shardSize = 256 << 10
	l := NewLayout(2, shardSize, 0)
	added := l.Grow(2)
	if len(added) != 2 || added[0] != 2 || added[1] != 3 {
		t.Fatalf("Grow ids = %v", added)
	}
	moves := l.PlanGrow()
	if len(moves) == 0 {
		t.Fatal("grow plan moved nothing")
	}
	total := 0
	for _, m := range moves {
		if m.To != 2 && m.To != 3 {
			t.Fatalf("move %+v targets an old shard", m)
		}
		if m.From == m.To {
			t.Fatalf("self-move %+v", m)
		}
		if m.Bytes()%l.PartSize() != 0 {
			t.Fatalf("move %+v not partition-aligned", m)
		}
		total += m.Bytes()
	}
	// 16 partitions on each of the two old shards even out to 8 on each
	// of four: half the space moves.
	span := 2 * shardSize
	if total != span/2 {
		t.Fatalf("grow moved %d of %d bytes, want %d", total, span, span/2)
	}
	// Before any Apply the routing is still one range per shard.
	if n := len(l.Compile(1).ranges); n != 2 {
		t.Fatalf("unapplied plan already changed routing: %d ranges", n)
	}
	for _, m := range moves {
		l.Apply(m)
	}
	tb := l.Compile(2)
	// The compiled table must tile the whole span and agree with the
	// layout's partition ownership.
	covered := 0
	for _, r := range tb.ranges {
		covered += r.End - r.Start
		for off := r.Start; off < r.End; off += l.PartSize() {
			if own := l.Owner(off / l.PartSize()); own != r.Shard {
				t.Fatalf("range %+v disagrees with owner %d at %d", r, own, off)
			}
		}
	}
	if covered != span {
		t.Fatalf("table covers %d of %d bytes", covered, span)
	}
	// Locate agrees with the ranges and reports sane local offsets.
	for off := 0; off < span; off += l.PartSize() / 2 {
		sh, lo, run := tb.Locate(off)
		if sh < 0 || sh > 3 || lo < 0 || lo >= shardSize || run <= 0 {
			t.Fatalf("Locate(%d) = (%d,%d,%d)", off, sh, lo, run)
		}
	}
}

func TestLayoutDrainAndRemove(t *testing.T) {
	const shardSize = 256 << 10
	l := NewLayout(2, shardSize, 0)
	l.Grow(2)
	for _, m := range l.PlanGrow() {
		l.Apply(m)
	}
	moves, err := l.PlanDrain(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range moves {
		if m.From != 3 || m.To == 3 {
			t.Fatalf("drain move %+v", m)
		}
		l.Apply(m)
	}
	for p := 0; p < 2*shardSize/l.PartSize(); p++ {
		if l.Owner(p) == 3 {
			t.Fatalf("partition %d still on the drained shard", p)
		}
	}
	l.Remove(3)
	if !l.Removed(3) || l.Serving() != 3 {
		t.Fatalf("removed=%v serving=%d", l.Removed(3), l.Serving())
	}
	// A later grow-plan never lands partitions on the tombstone.
	l.Grow(1)
	for _, m := range l.PlanGrow() {
		if m.To == 3 || m.From == 3 {
			t.Fatalf("post-remove plan touches the tombstone: %+v", m)
		}
	}
}

func TestLayoutDrainNoCapacity(t *testing.T) {
	// Two shards, everything occupied: draining one cannot fit.
	l := NewLayout(2, 64<<10, 0)
	if _, err := l.PlanDrain(1); err == nil {
		t.Fatal("drain into a full layout succeeded")
	}
}
