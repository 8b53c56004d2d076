package repro_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// durCfg is the facade matrix's durable configuration: a replicated
// cluster persisting under dir.
func durCfg(dir string) repro.Config {
	return repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.PassiveBackup,
		DBSize:  1 << 20,
		Backups: 2,
		Safety:  repro.TwoSafe,
		Durability: repro.DurabilityConfig{
			Dir:           dir,
			SnapshotEvery: 64,
		},
	}
}

func durPut(t *testing.T, db repro.DB, k int) {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	off := (k % 512) * 128
	val := []byte(fmt.Sprintf("txn-%08d", k))
	if err := tx.SetRange(off, len(val)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(off, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func durCheck(t *testing.T, db repro.DB, k int) {
	t.Helper()
	off := (k % 512) * 128
	want := fmt.Sprintf("txn-%08d", k)
	got := make([]byte, len(want))
	db.ReadRaw(off, got)
	if string(got) != want {
		t.Fatalf("txn %d: read %q, want %q", k, got, want)
	}
}

// TestClusterDurabilityOff: without Config.Durability the disk surface is
// inert on both facades.
func TestClusterDurabilityOff(t *testing.T) {
	for name, admin := range conformanceTargets(t, replicatedCfg()) {
		t.Run(name, func(t *testing.T) {
			if st := admin.Durability(); st.Enabled {
				t.Fatal("durability enabled without configuration")
			}
			if err := admin.PowerFail(); !errors.Is(err, repro.ErrNoDurability) {
				t.Fatalf("PowerFail = %v, want ErrNoDurability", err)
			}
			if tails := admin.WALTails(); tails != nil {
				t.Fatalf("WALTails = %v without the tier", tails)
			}
			if err := admin.Close(); err != nil {
				t.Fatalf("Close = %v", err)
			}
		})
	}
}

// TestClusterPowerFailRestart: a Cluster power-failed mid-run comes back
// over the same directory with every settled transaction.
func TestClusterPowerFailRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := repro.New(durCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	for k := 1; k <= n; k++ {
		durPut(t, db, k)
	}
	db.Settle()
	st := db.Durability()
	if !st.Enabled || st.DurableSeq != n {
		t.Fatalf("status = %+v, want %d durable", st, n)
	}
	if err := db.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if len(db.WALTails()) == 0 {
		t.Fatal("no WAL tails after PowerFail")
	}
	// The dead deployment refuses service.
	if _, err := db.Begin(); !errors.Is(err, repro.ErrCrashed) {
		t.Fatalf("Begin after PowerFail = %v, want ErrCrashed", err)
	}

	db2, err := repro.New(durCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := db2.Durability().Recovery
	if !rec.Recovered || rec.Seq != n {
		t.Fatalf("recovery = %+v, want seq %d", rec, n)
	}
	if got := db2.Committed(); got != n {
		t.Fatalf("recovered %d commits, want %d", got, n)
	}
	for k := 1; k <= n; k++ {
		durCheck(t, db2, k)
	}
	durPut(t, db2, n+1)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedPowerFailRestart: every shard persists under its own
// subdirectory; a whole-deployment power loss (PowerFail per shard) cold
// restarts shard by shard with the full keyspace intact.
func TestShardedPowerFailRestart(t *testing.T) {
	dir := t.TempDir()
	const shards = 3
	db, err := repro.NewSharded(durCfg(dir), shards)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for k := 1; k <= n; k++ {
		durPut(t, db, k)
	}
	db.Settle()
	for i := 0; i < shards; i++ {
		if st := db.Shard(i).Durability(); !st.Enabled {
			t.Fatalf("shard %d: durability off", i)
		}
		if err := db.Shard(i).PowerFail(); err != nil {
			t.Fatalf("shard %d: PowerFail: %v", i, err)
		}
	}
	// One subdirectory per shard on disk.
	for i := 0; i < shards; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%03d", i))); err != nil {
			t.Fatalf("shard %d subdirectory: %v", i, err)
		}
	}

	db2, err := repro.NewSharded(durCfg(dir), shards)
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Committed(); got != n {
		t.Fatalf("recovered %d commits, want %d", got, n)
	}
	for k := 1; k <= n; k++ {
		durCheck(t, db2, k)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}
