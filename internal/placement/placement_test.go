package placement

import (
	"testing"
)

func TestRingDeterministicOwner(t *testing.T) {
	a, b := NewRing(0), NewRing(0)
	for i := 0; i < 4; i++ {
		a.Add(i)
		b.Add(i)
	}
	for p := 0; p < 256; p++ {
		oa, ok := a.Owner(PartKey(p))
		ob, _ := b.Owner(PartKey(p))
		if !ok || oa != ob {
			t.Fatalf("partition %d: owners %d vs %d (ok=%v)", p, oa, ob, ok)
		}
	}
}

func TestRingMinimalMovement(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(i)
	}
	const parts = 1024
	before := make([]int, parts)
	for p := range before {
		before[p], _ = r.Owner(PartKey(p))
	}
	r.Add(4)
	moved := 0
	for p := range before {
		after, _ := r.Owner(PartKey(p))
		if after != before[p] {
			moved++
			if after != 4 {
				t.Fatalf("partition %d moved %d -> %d, not to the new shard", p, before[p], after)
			}
		}
	}
	// The new shard should capture roughly 1/5 of the space; accept a
	// generous band around it.
	if moved < parts/10 || moved > parts/2 {
		t.Fatalf("adding 1 of 5 shards moved %d/%d partitions", moved, parts)
	}
	// Removing it restores the old ownership exactly.
	r.Remove(4)
	for p := range before {
		after, _ := r.Owner(PartKey(p))
		if after != before[p] {
			t.Fatalf("partition %d did not return to shard %d after removal", p, before[p])
		}
	}
}

func TestRingOwnerExcluding(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Add(i)
	}
	key := PartKey(7)
	first, ok := r.Owner(key)
	if !ok {
		t.Fatal("empty owner on a populated ring")
	}
	second, ok := r.OwnerExcluding(key, func(s int) bool { return s == first })
	if !ok || second == first {
		t.Fatalf("successor %d (ok=%v) should differ from owner %d", second, ok, first)
	}
	if _, ok := r.OwnerExcluding(key, func(int) bool { return true }); ok {
		t.Fatal("all-excluded lookup reported an owner")
	}
}

func TestTableUniformMatchesStride(t *testing.T) {
	const stride = 64 << 10
	tb := Uniform(1, stride)
	if !tb.IsUniform() {
		t.Fatal("uniform table not flagged uniform")
	}
	for _, off := range []int{0, 1, stride - 1, stride, 3*stride + 17} {
		sh, lo, run := tb.Locate(off)
		if sh != off/stride || lo != off%stride || run != stride-off%stride {
			t.Fatalf("Locate(%d) = (%d,%d,%d), want (%d,%d,%d)",
				off, sh, lo, run, off/stride, off%stride, stride-off%stride)
		}
	}
}

func TestLayoutCompileUniform(t *testing.T) {
	l := NewLayout(4, 256<<10, 0)
	tb := l.Compile(1)
	if !tb.IsUniform() || tb.Epoch != 1 {
		t.Fatalf("fresh layout compiled non-uniform (epoch %d)", tb.Epoch)
	}
	if l.PartSize()%pageSize != 0 || (256<<10)%l.PartSize() != 0 {
		t.Fatalf("partition size %d does not tile the shard", l.PartSize())
	}
	if per := (256 << 10) / l.PartSize(); per < 16 {
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
	moves := l.PlanGrow(added)
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
	span := 2 * shardSize
	if total >= span || total < span/16 {
		t.Fatalf("grow moved %d of %d bytes", total, span)
	}
	// Before any Apply the routing is still the uniform fast path.
	if !l.Compile(1).IsUniform() {
		t.Fatal("unapplied plan already changed routing")
	}
	for _, m := range moves {
		l.Apply(m)
	}
	tb := l.Compile(2)
	if tb.IsUniform() {
		t.Fatal("applied plan still uniform")
	}
	// The compiled table must tile the whole span and agree with the
	// layout's partition ownership.
	covered := 0
	for _, r := range tb.Ranges() {
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
	added := l.Grow(2)
	for _, m := range l.PlanGrow(added) {
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
	for p := 0; p < l.Parts(); p++ {
		if l.Owner(p) == 3 {
			t.Fatalf("partition %d still on the drained shard", p)
		}
	}
	l.Remove(3)
	if !l.Removed(3) || l.Serving() != 3 {
		t.Fatalf("removed=%v serving=%d", l.Removed(3), l.Serving())
	}
	// A later grow-plan never lands partitions on the tombstone.
	added = l.Grow(1)
	for _, m := range l.PlanGrow(added) {
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
