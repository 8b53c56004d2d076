package kv_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/kv"
)

// versioned is a keyspace whose values carry the version last
// acknowledged, so any later read can be audited against it.
type versioned struct {
	t     *testing.T
	s     *kv.Store
	acked []int // acked[k] is key k's newest acknowledged version
}

func (v *versioned) key(k int) []byte { return []byte(fmt.Sprintf("grow%05d", k)) }

// put writes key k's next version (k one past the end inserts a new key);
// the value's length varies with the version, so an overwrite in place
// changes the record's header too.
func (v *versioned) put(k int) {
	v.t.Helper()
	if k == len(v.acked) {
		v.acked = append(v.acked, 0)
	}
	ver := v.acked[k] + 1
	val := fmt.Sprintf("k%05d v%06d %*s", k, ver, ver%40, "")
	if err := v.s.Put(v.key(k), []byte(val)); err != nil {
		v.t.Fatalf("put key %d version %d: %v", k, ver, err)
	}
	v.acked[k] = ver
}

// audit reads every key back at its acknowledged version.
func (v *versioned) audit(when string) {
	v.t.Helper()
	if v.s.Len() != len(v.acked) {
		v.t.Fatalf("%s: %d live keys, want %d", when, v.s.Len(), len(v.acked))
	}
	for k, ver := range v.acked {
		want := fmt.Sprintf("k%05d v%06d %*s", k, ver, ver%40, "")
		if got, err := v.s.Get(v.key(k)); err != nil || string(got) != want {
			v.t.Fatalf("%s: key %d reads %q, %v; want version %d", when, k, got, err, ver)
		}
	}
}

// regionsWhole is the invariant the layout stands on: at the current
// placement epoch every region's first and last byte are on one shard, so
// a bucket word and the record it names always commit together.
func regionsWhole(c *repro.Cluster, s *kv.Store) error {
	regions, _, _ := s.Geometry()
	part := c.PartSize()
	for r := 0; r < regions; r++ {
		if first, last := c.ShardFor(r*part), c.ShardFor((r+1)*part-1); first != last {
			return fmt.Errorf("epoch %d: region %d starts on shard %d and ends on shard %d", c.PlacementEpoch(), r, first, last)
		}
	}
	return nil
}

// TestKeyspaceThroughGrowth keeps a keyspace live while the deployment
// under it grows from one shard to four and then drains one away: every
// region stays on one shard at every placement epoch, a PUT is one commit
// before and after, and what was acknowledged survives a crash of every
// primary.
func TestKeyspaceThroughGrowth(t *testing.T) {
	c := newCluster(t, quorum3(repro.Config{})).(*repro.Cluster)
	s, err := kv.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	v := &versioned{t: t, s: s}
	const preloaded = 400
	for k := 0; k < preloaded; k++ {
		v.put(k)
	}
	// write is the live traffic: mostly overwrites, an insert now and then.
	step := 0
	write := func() {
		if step++; step%8 == 0 {
			v.put(len(v.acked))
		} else {
			v.put(step * 7919 % len(v.acked))
		}
	}
	// oneCommitPerPut: n acknowledged PUTs add exactly n commits. (While
	// the mover runs its barrier transactions count too, so this is
	// asserted on either side of a move, not during one.)
	oneCommitPerPut := func(when string) {
		t.Helper()
		const n = 100
		before := c.Stats().Commits
		for i := 0; i < n; i++ {
			write()
		}
		if got := c.Stats().Commits - before; got != n {
			t.Fatalf("%s: %d PUTs made %d commits", when, n, got)
		}
	}
	oneCommitPerPut("on one shard")
	if err := regionsWhole(c, s); err != nil {
		t.Fatal(err)
	}

	// Grow 1 → 4 under the writer: the mover rides its commits.
	if _, err := c.AddShards(3); err != nil {
		t.Fatal(err)
	}
	if err := c.RebalanceAsync(); err != nil {
		t.Fatal(err)
	}
	epochs := 0
	for last := c.PlacementEpoch(); c.RebalanceProgress().Active; {
		write()
		if e := c.PlacementEpoch(); e != last {
			last = e
			epochs++
			if err := regionsWhole(c, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if epochs == 0 {
		t.Fatal("the grow cut nothing over")
	}
	v.audit("after the grow")
	oneCommitPerPut("on four shards")
	onShard := map[int]bool{}
	for k := range v.acked {
		r, _ := s.Place(v.key(k))
		onShard[c.ShardFor(r*c.PartSize())] = true
	}
	if len(onShard) != 4 {
		t.Fatalf("the keys live on %d shards after the grow, want 4", len(onShard))
	}

	// Drain a shard away. RemoveShard blocks and cuts over as it goes, so
	// it runs beside the writer, which checks every routing table it
	// catches. The epoch is read before the drain starts: a drain quicker
	// than the writer's first look must still count.
	drained := make(chan error, 1)
	last := c.PlacementEpoch()
	go func() { drained <- c.RemoveShard(1) }()
	drainEpochs := 0
	for done := false; !done; {
		select {
		case err := <-drained:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			write()
		}
		if e := c.PlacementEpoch(); e != last {
			last = e
			drainEpochs++
			if err := regionsWhole(c, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if drainEpochs == 0 {
		t.Fatal("the drain cut nothing over")
	}
	t.Logf("audited %d epochs of the grow and %d of the drain", epochs, drainEpochs)
	v.audit("after the drain")

	// Every acknowledged version is on the survivors.
	for shard := 0; shard < c.Shards(); shard++ {
		if err := c.Shard(shard).CrashPrimary(); err != nil {
			t.Fatal(err)
		}
		if err := c.Shard(shard).Failover(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	v.audit("after every primary crashed")
	oneCommitPerPut("on the survivors")
}
