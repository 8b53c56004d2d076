package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro"
)

func newSharded(t *testing.T, shards int) *repro.ShardedCluster {
	t.Helper()
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestShardedValidation(t *testing.T) {
	if _, err := repro.NewSharded(repro.Config{Version: repro.V3InlineLog, DBSize: testDB}, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	sc := newSharded(t, 4)
	if sc.Shards() != 4 {
		t.Fatalf("Shards() = %d", sc.Shards())
	}
	if sc.DBSize() != testDB {
		t.Fatalf("DBSize() = %d, want the configured %d", sc.DBSize(), testDB)
	}
	if sc.Capacity() < sc.DBSize() {
		t.Fatalf("Capacity() %d below DBSize() %d", sc.Capacity(), sc.DBSize())
	}
	if sc.Shard(4) != nil || sc.Shard(-1) != nil {
		t.Fatal("out-of-range Shard() not nil")
	}
	if got := sc.ShardFor(sc.ShardSize() + 1); got != 1 {
		t.Fatalf("ShardFor = %d", got)
	}
}

// TestShardedDBSizeBound: per-shard sizes round up to 4 KB, so the
// allocated capacity can exceed the configured size — but offsets are
// validated against the configured DBSize, never the rounding tail.
func TestShardedDBSizeBound(t *testing.T) {
	// 3 shards of a 4 MB database: 1398101.33.. rounds up to 1400832,
	// so Capacity (4202496) exceeds DBSize (4194304).
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sc.DBSize() != testDB {
		t.Fatalf("DBSize() = %d, want %d", sc.DBSize(), testDB)
	}
	if sc.Capacity() <= testDB {
		t.Fatalf("Capacity() = %d, expected rounding above %d", sc.Capacity(), testDB)
	}
	// The last configured byte is writable...
	tx, err := sc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	must(t, tx.SetRange(testDB-8, 8))
	must(t, tx.Write(testDB-8, []byte("lastbyte")))
	must(t, tx.Commit())
	// ...but the rounding tail past DBSize is not addressable.
	tx, err = sc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(testDB, 8); err == nil {
		t.Fatal("write into the rounding tail accepted")
	}
	must(t, tx.Abort())
	if err := sc.Read(testDB-8, make([]byte, 16)); err == nil {
		t.Fatal("read across the configured end accepted")
	}
}

// TestShardedPartialCommit: a shard crashing between a multi-shard
// transaction's writes and its commit leaves the earlier shards
// committed and the later ones rolled back; the failure is the crash,
// named by its shard.
func TestShardedPartialCommit(t *testing.T) {
	sc := newSharded(t, 3)
	tx, err := sc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Touch all three shards in order.
	for shard := 0; shard < 3; shard++ {
		off := shard * sc.ShardSize()
		must(t, tx.SetRange(off, 8))
		must(t, tx.Write(off, []byte("spanning")))
	}
	// Shard 1 dies before the commit fan-out reaches it.
	must(t, sc.Shard(1).CrashPrimary())
	err = tx.Commit()
	if !errors.Is(err, repro.ErrCrashed) || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("commit error %v, want ErrCrashed naming shard 1", err)
	}
	// The committed shard's write is visible; the aborted shard's is not.
	got := make([]byte, 8)
	sc.Shard(0).ReadRaw(0, got)
	if !bytes.Equal(got, []byte("spanning")) {
		t.Fatal("committed shard 0 lost its write")
	}
	sc.Shard(2).ReadRaw(0, got)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatal("aborted shard 2 kept the write")
	}
	if sc.Shard(0).Committed() != 1 || sc.Shard(2).Committed() != 0 {
		t.Fatal("per-shard commit counts wrong after partial commit")
	}
}

// TestShardedAckDegradation: a shard that commits locally but cannot
// collect its configured acknowledgements (backups died mid-transaction)
// is NOT a failed shard — its data is durable and visible, later shards
// still commit, and the degradation surfaces as ErrSafetyUnavailable
// rather than a crash.
func TestShardedAckDegradation(t *testing.T) {
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
		Backups: 3,
		Safety:  repro.QuorumSafe,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := sc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 3; shard++ {
		off := shard * sc.ShardSize()
		must(t, tx.SetRange(off, 8))
		must(t, tx.Write(off, []byte("spanning")))
	}
	// Kill a majority of shard 1's backups mid-transaction: its local
	// commit succeeds but the quorum cannot acknowledge.
	must(t, sc.Shard(1).CrashBackup(0))
	must(t, sc.Shard(1).CrashBackup(1))
	err = tx.Commit()
	if !errors.Is(err, repro.ErrSafetyUnavailable) || errors.Is(err, repro.ErrCrashed) {
		t.Fatalf("commit error %v, want ErrSafetyUnavailable and no crash", err)
	}
	// Every shard committed, the degraded one included.
	for shard := 0; shard < 3; shard++ {
		if got := sc.Shard(shard).Committed(); got != 1 {
			t.Fatalf("shard %d Committed() = %d, want 1", shard, got)
		}
	}
}

// TestShardedRouting: writes and reads spanning shard boundaries land on
// the right shards' databases.
func TestShardedRouting(t *testing.T) {
	sc := newSharded(t, 4)
	boundary := sc.ShardSize() // straddles shards 0 and 1
	payload := bytes.Repeat([]byte{0xAB}, 128)

	tx, err := sc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	must(t, tx.SetRange(boundary-64, 128))
	must(t, tx.Write(boundary-64, payload))
	must(t, tx.Commit())

	got := make([]byte, 128)
	sc.ReadRaw(boundary-64, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("spanning write not readable back")
	}
	// Each side is on its own shard.
	half := make([]byte, 64)
	sc.Shard(0).ReadRaw(sc.ShardSize()-64, half)
	if !bytes.Equal(half, payload[:64]) {
		t.Fatal("left half missing on shard 0")
	}
	sc.Shard(1).ReadRaw(0, half)
	if !bytes.Equal(half, payload[64:]) {
		t.Fatal("right half missing on shard 1")
	}
	// Both touched shards committed; untouched shards did not.
	if sc.Shard(0).Committed() != 1 || sc.Shard(1).Committed() != 1 {
		t.Fatal("touched shards did not commit")
	}
	if sc.Shard(2).Committed() != 0 || sc.Shard(3).Committed() != 0 {
		t.Fatal("untouched shards committed")
	}
	if sc.Committed() != 2 {
		t.Fatalf("Committed() = %d", sc.Committed())
	}
	s := sc.Stats()
	if s.Commits != 2 || s.Begins != 2 {
		t.Fatalf("stats %+v", s)
	}
	// Charged read across the boundary.
	must(t, sc.Read(boundary-64, got))
	if !bytes.Equal(got, payload) {
		t.Fatal("charged read mismatch")
	}
}

func TestShardedAbort(t *testing.T) {
	sc := newSharded(t, 2)
	tx, err := sc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	must(t, tx.SetRange(0, 8))
	must(t, tx.Write(0, []byte("garbage!")))
	must(t, tx.Abort())
	got := make([]byte, 8)
	sc.ReadRaw(0, got)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatal("aborted write visible")
	}
	if sc.Stats().Aborts != 1 {
		t.Fatalf("stats %+v", sc.Stats())
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit after abort accepted")
	}
}

// TestShardedThroughputScales: the same total work finishes in less
// simulated wall-clock on more shards, so aggregate txn/s goes up.
func TestShardedThroughputScales(t *testing.T) {
	const txns = 400
	run := func(shards int) float64 {
		sc := newSharded(t, shards)
		sc.ResetMeasurement()
		// Spread single-shard transactions round-robin across shards.
		for i := 0; i < txns; i++ {
			shard := i % shards
			off := shard*sc.ShardSize() + (i/shards)*64
			tx, err := sc.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(off, 64))
			must(t, tx.Write(off, bytes.Repeat([]byte{byte(i + 1)}, 64)))
			must(t, tx.Commit())
		}
		elapsed := sc.Elapsed().Seconds()
		if elapsed <= 0 {
			t.Fatal("no simulated time elapsed")
		}
		return txns / elapsed
	}
	one, four := run(1), run(4)
	if four < 2*one {
		t.Fatalf("4 shards at %.0f txn/s, not clearly above 1 shard at %.0f", four, one)
	}
}

// TestShardedFailoverIsolation: a crash takes down one shard; the others
// keep serving, and failover brings the crashed shard back with all its
// committed data.
func TestShardedFailoverIsolation(t *testing.T) {
	sc := newSharded(t, 3)
	write := func(shard, slot int, fill byte) {
		off := shard*sc.ShardSize() + slot*64
		tx, err := sc.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(off, 64))
		must(t, tx.Write(off, bytes.Repeat([]byte{fill}, 64)))
		must(t, tx.Commit())
	}
	for i := 0; i < 10; i++ {
		for shard := 0; shard < 3; shard++ {
			write(shard, i, byte(i+1))
		}
	}
	sc.Settle()
	must(t, sc.Shard(1).CrashPrimary())
	if sc.Shard(7) != nil {
		t.Fatal("bogus shard addressed")
	}

	// Shard 1 refuses, others serve.
	tx, err := sc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(sc.ShardSize()+2048, 8); err == nil {
		t.Fatal("crashed shard served a transaction")
	}
	must(t, tx.Abort())
	write(0, 20, 99)
	write(2, 20, 99)

	must(t, sc.Shard(1).Failover())
	buf := make([]byte, 64)
	for i := 0; i < 10; i++ {
		sc.ReadRaw(sc.ShardSize()+i*64, buf)
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(i + 1)}, 64)) {
			t.Fatalf("shard 1 slot %d lost after failover", i)
		}
	}
	write(1, 20, 99) // the failed-over shard serves again
	must(t, sc.Shard(1).Repair())
	write(1, 21, 100)
}

// TestFacadeQuorumGroup drives the N-replica group through the public
// API: 3 backups, quorum commit, primary plus one backup die, nothing
// acked is lost.
func TestFacadeQuorumGroup(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
		Backups: 3,
		Safety:  repro.QuorumSafe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Backups() != 3 {
		t.Fatalf("Backups() = %d", c.Backups())
	}
	for i := 0; i < 40; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(i*64, 64))
		must(t, tx.Write(i*64, bytes.Repeat([]byte{byte(i + 1)}, 64)))
		must(t, tx.Commit())
	}
	must(t, c.CrashPrimary()) // no Settle: quorum acks are the guarantee
	must(t, c.CrashBackup(1))
	must(t, c.Failover())
	if got := c.Committed(); got != 40 {
		t.Fatalf("quorum group lost commits: %d of 40", got)
	}
	buf := make([]byte, 64)
	c.ReadRaw(39*64, buf)
	if !bytes.Equal(buf, bytes.Repeat([]byte{40}, 64)) {
		t.Fatal("last acked commit's data lost")
	}
}

// TestShardViewIsTheOnlySelector drives every per-group Admin method through
// Shard(i), for each i of a four-shard deployment, and holds the other three
// shards still: the view is the one way to name a shard, and it names one.
func TestShardViewIsTheOnlySelector(t *testing.T) {
	const shards = 4
	sc, err := repro.NewSharded(durCfg(t.TempDir()), shards)
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		backups, generation int
		committed           uint64
		repair              repro.RepairProgress
	}
	snap := func(v *repro.Cluster) state {
		return state{v.Backups(), v.Generation(), v.Committed(), v.RepairProgress()}
	}
	heal := func(v *repro.Cluster) error {
		if err := v.RepairAsync(); err != nil {
			return err
		}
		for n := 0; n < 100000 && v.RepairProgress().Active; n++ {
			v.Settle()
		}
		if p := v.RepairProgress(); p.Active || v.Backups() != 2 {
			return fmt.Errorf("repair left %d backups, %+v", v.Backups(), p)
		}
		return nil
	}
	want := func(ok bool, format string, a ...any) error {
		if ok {
			return nil
		}
		return fmt.Errorf(format, a...)
	}
	steps := []struct {
		name string
		do   func(v *repro.Cluster) error
	}{
		{"PauseBackup", func(v *repro.Cluster) error { return v.PauseBackup(0) }},
		{"ResumeBackup", func(v *repro.Cluster) error { return v.ResumeBackup(0) }},
		{"RepairAsync+RepairProgress", heal},
		{"CrashBackup", func(v *repro.Cluster) error { return v.CrashBackup(1) }},
		{"Repair", func(v *repro.Cluster) error { return v.Repair() }},
		{"Backups", func(v *repro.Cluster) error { return want(v.Backups() == 2, "Backups = %d after Repair", v.Backups()) }},
		{"PartitionPrimary", func(v *repro.Cluster) error {
			if err := v.PartitionPrimary(); err != nil {
				return err
			}
			return errors.Join(v.ResumeBackup(0), v.ResumeBackup(1), v.Repair())
		}},
		{"CrashPrimary", func(v *repro.Cluster) error { return v.CrashPrimary() }},
		{"Failover", func(v *repro.Cluster) error {
			if err := v.Failover(); err != nil {
				return err
			}
			return want(v.Generation() == 1, "Generation = %d after a failover", v.Generation())
		}},
		{"Repair after failover", func(v *repro.Cluster) error { return v.Repair() }},
		{"Durability", func(v *repro.Cluster) error { return want(v.Durability().Enabled, "disk tier off") }},
		{"PowerFail", func(v *repro.Cluster) error { return v.PowerFail() }},
		{"WALTails", func(v *repro.Cluster) error { return want(len(v.WALTails()) > 0, "no WAL tails after PowerFail") }},
	}
	for i := 0; i < shards; i++ {
		v := sc.Shard(i)
		durPut(t, v, i+1)
		v.Settle()
		var before [shards]state
		for j := range before {
			before[j] = snap(sc.Shard(j))
		}
		for _, s := range steps {
			if err := s.do(v); err != nil {
				t.Fatalf("shard %d: %s: %v", i, s.name, err)
			}
			for j := range before {
				if got := snap(sc.Shard(j)); j != i && got != before[j] {
					t.Fatalf("shard %d: %s moved shard %d: %+v, was %+v", i, s.name, j, got, before[j])
				}
			}
		}
	}
}

// TestScopeSealReportsACrashAheadOfADegradedShard: a scope's seal over
// several shards reports a shard whose primary died holding its unsealed
// commits with ErrCrashed, even when a shard sealed before it comes back
// short of its quorum: the degraded acknowledgement must not pass the lost
// commits off as durable.
func TestScopeSealReportsACrashAheadOfADegradedShard(t *testing.T) {
	c, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		Backups: 3,
		Safety:  repro.QuorumSafe,
		DBSize:  testDB,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	offOn := func(shard int) int {
		for off := 0; ; off += c.PartSize() {
			if c.ShardFor(off) == shard {
				return off
			}
		}
	}
	scope := c.DeferAcks()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range []int{0, 2} {
		if err := tx.SetRange(offOn(shard), 8); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(offOn(shard), []byte("deferred")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Shard(0).CrashBackup(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Shard(2).CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	if err := scope.Seal(); !errors.Is(err, repro.ErrCrashed) {
		t.Fatalf("seal = %v, want ErrCrashed", err)
	}
}
