package repro_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro"
	"repro/internal/tpc"
	"repro/kv"
)

// TestCommitPathZeroAllocs pins the steady-state Debit-Credit commit path
// to zero allocations per transaction: the recycled vista.Tx, the redo
// channel's staged buffers, the accessor word scratch and the batched ack
// scratch together mean a warmed transaction touches the allocator not at
// all. Any regression here is a performance bug on the hottest path in the
// repository. The instrumented variant attaches the obs registry
// (Config.Metrics) and must hold the same zero: instruments are plain
// atomics recording into preallocated buckets, so observability costs
// cycles, never allocations. The quorum variant (K=3) adds the
// acknowledgement wait: collecting and ordering the backups' ack times
// uses the group's scratch and allocates nothing either. The V2 variant
// runs the paper's mirror-by-diff engine under a passive backup: its
// commit compares each set range with the mirror in the accessor's scratch
// buffer and allocates nothing either.
func TestCommitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	active := func(cfg repro.Config) repro.Config {
		cfg.Version, cfg.Backup = repro.V3InlineLog, repro.ActiveBackup
		return cfg
	}
	for name, cfg := range map[string]repro.Config{
		"bare":         active(repro.Config{}),
		"instrumented": active(repro.Config{Metrics: true}),
		"quorum":       active(repro.Config{Backups: 3, Safety: repro.QuorumSafe}),
		"v2":           {Version: repro.V2MirrorDiff, Backup: repro.PassiveBackup},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.DBSize = 8 << 20
			c, err := repro.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := tpc.NewDebitCredit(8 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Populate(c.Load); err != nil {
				t.Fatal(err)
			}
			r := tpc.NewRand(1)
			i := int64(0)
			txn := func() {
				tx, err := c.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Txn(r, tx, i); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				i++
			}
			// Warm every pool and slice capacity on the path (ring scratch,
			// redo staging, write-buffer tables) before counting.
			for k := 0; k < 2000; k++ {
				txn()
			}
			if allocs := testing.AllocsPerRun(500, txn); allocs != 0 {
				t.Fatalf("steady-state Debit-Credit commit path (%s) allocates %.1f times per txn, want 0", name, allocs)
			}
		})
	}
}

// TestShardedCommitPathZeroAllocs pins the sharded front-end's
// single-shard transaction path (pooled shardedTx, closure-free routing)
// to zero allocations per transaction — with and without per-shard obs
// registries attached.
func TestShardedCommitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, metrics := range []bool{false, true} {
		name := "bare"
		if metrics {
			name = "instrumented"
		}
		t.Run(name, func(t *testing.T) {
			sc, err := repro.NewSharded(repro.Config{
				Version: repro.V3InlineLog,
				Backup:  repro.ActiveBackup,
				DBSize:  8 << 20,
				Metrics: metrics,
			}, 4)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 64)
			for i := range payload {
				payload[i] = byte(i + 1)
			}
			slots := sc.ShardSize() / 128
			i := 0
			txn := func() {
				off := (i%4)*sc.ShardSize() + (i/4%slots)*128
				i++
				tx, err := sc.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.SetRange(off, 64); err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(off, payload); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 2000; k++ {
				txn()
			}
			if allocs := testing.AllocsPerRun(500, txn); allocs != 0 {
				t.Fatalf("sharded commit path (%s) allocates %.1f times per txn, want 0", name, allocs)
			}
		})
	}
}

// TestKVPutZeroAllocs pins the kv layer's single-key mutations to the
// allocation count of the commit path beneath them: none. A Put or Delete
// is a probe, one Begin, one or two declared writes (none for an
// overwrite with an identical value; the changed range of one that
// differs) and a Commit, written
// straight through — no plan to build, no closure to run — on one shard and
// on four alike, 1-safe and at a K=3 quorum alike — and so is a Burst's Put
// and Seal, which open and close a deferral scope on every shard, and a
// Burst of three Puts and a Get, which share one transaction. A lookup
// allocates nothing either: GetAppend reads the primary's view through the
// recycled view — on the K=3 quorum row served by a backup that has applied
// all of it — and on the K=2 row a ReadBounded GetAppendAt through the same
// view is served by a backup.
func TestKVPutZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for name, tc := range map[string]struct {
		shards int
		cfg    repro.Config
	}{
		"shards=1": {shards: 1},
		"shards=4": {shards: 4},
		"quorum":   {shards: 1, cfg: repro.Config{Backups: 3, Safety: repro.QuorumSafe}},
		"bounded":  {shards: 1, cfg: repro.Config{Backups: 2}},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Version, cfg.Backup, cfg.DBSize = repro.V3InlineLog, repro.ActiveBackup, 8<<20
			c, err := repro.NewSharded(cfg, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			s, err := kv.Open(c)
			if err != nil {
				t.Fatal(err)
			}
			const n = 1024
			var resident, transient [n][]byte
			for i := range resident {
				resident[i] = []byte(fmt.Sprintf("resident%06d", i))
				transient[i] = []byte(fmt.Sprintf("transient%05d", i))
			}
			val := make([]byte, 64)
			i := 0
			overwrite := func() {
				if err := s.Put(resident[i%n], val); err != nil {
					t.Fatal(err)
				}
				i++
			}
			insertDelete := func() {
				if err := s.Put(transient[i%n], val); err != nil {
					t.Fatal(err)
				}
				if err := s.Delete(transient[i%n]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			// The first pass inserts the resident keys and warms every pool
			// and scratch buffer on the path.
			for k := 0; k < 2*n; k++ {
				overwrite()
				insertDelete()
			}
			if allocs := testing.AllocsPerRun(500, overwrite); allocs != 0 {
				t.Fatalf("an identical overwriting Put allocates %.1f times, want 0", allocs)
			}
			// Each call stamps a value the key has never held, so the
			// overwrite has bytes to compare and ship.
			stamped := make([]byte, len(val))
			changing := func() {
				binary.BigEndian.PutUint64(stamped, uint64(i+1))
				if err := s.Put(resident[i%n], stamped); err != nil {
					t.Fatal(err)
				}
				i++
			}
			if allocs := testing.AllocsPerRun(500, changing); allocs != 0 {
				t.Fatalf("a changing overwriting Put allocates %.1f times, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(500, insertDelete); allocs != 0 {
				t.Fatalf("an inserting Put and its Delete allocate %.1f times, want 0", allocs)
			}
			b := s.Burst()
			burst := func() {
				if err := b.Put(resident[i%n], val); err != nil {
					t.Fatal(err)
				}
				if err := b.Seal(); err != nil {
					t.Fatal(err)
				}
				i++
			}
			if allocs := testing.AllocsPerRun(500, burst); allocs != 0 {
				t.Fatalf("a Burst's Put and Seal allocate %.1f times, want 0", allocs)
			}
			// Three changing PUTs in one transaction, a GET of the first
			// through it, one seal.
			shared := func() {
				for k := 0; k < 3; k++ {
					binary.BigEndian.PutUint64(stamped, uint64(i+1))
					if err := b.Put(resident[(i+k)%n], stamped); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := b.GetAppend(resident[i%n], stamped[:0]); err != nil {
					t.Fatal(err)
				}
				if err := b.Seal(); err != nil {
					t.Fatal(err)
				}
				i++
			}
			if allocs := testing.AllocsPerRun(500, shared); allocs != 0 {
				t.Fatalf("a Burst's three Puts, Get and Seal allocate %.1f times, want 0", allocs)
			}
			// The first pass wrote every even-numbered resident key.
			dst := make([]byte, 0, len(val))
			get := func() {
				if _, err := s.GetAppend(resident[2*i%n], dst); err != nil {
					t.Fatal(err)
				}
				i++
			}
			if allocs := testing.AllocsPerRun(500, get); allocs != 0 {
				t.Fatalf("a GetAppend allocates %.1f times, want 0", allocs)
			}
			if tc.cfg.Safety == repro.QuorumSafe {
				onBackup := func() {
					_, res, err := s.GetAppendAt(resident[2*i%n], dst, repro.ReadOpts{})
					if err != nil || res.Replica == 0 {
						t.Fatalf("GetAppendAt at the primary's view after quorum Puts: %+v, %v; want a backup", res, err)
					}
					i++
				}
				if allocs := testing.AllocsPerRun(500, onBackup); allocs != 0 {
					t.Fatalf("a backup-served GetAppend allocates %.1f times, want 0", allocs)
				}
			}
			if tc.cfg.Backups != 2 {
				return
			}
			c.Settle()
			bounded := repro.ReadOpts{Mode: repro.ReadBounded, Bound: 1 << 20}
			getAt := func() {
				_, res, err := s.GetAppendAt(resident[2*i%n], dst, bounded)
				if err != nil || res.Replica == 0 {
					t.Fatalf("bounded GetAppendAt: %+v, %v", res, err)
				}
				i++
			}
			if allocs := testing.AllocsPerRun(500, getAt); allocs != 0 {
				t.Fatalf("a ReadBounded GetAppendAt allocates %.1f times, want 0", allocs)
			}
		})
	}
}
