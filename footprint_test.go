package repro_test

import (
	"runtime"
	"testing"
	"weak"

	"repro"
	"repro/kv"
)

// TestFreshStoreHoldsOnlyItsHeader: a node holds only the memory it wrote.
// Opening a kv store on a fresh 64 MiB deployment writes its header, so every
// node's database holds the one chunk with the header and nothing else.
func TestFreshStoreHoldsOnlyItsHeader(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  64 << 20,
		Backups: 3,
		Safety:  repro.QuorumSafe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Open(c); err != nil {
		t.Fatal(err)
	}
	for i, b := range repro.DBBackings(c) {
		if n := b.Chunks(); n != 1 {
			t.Errorf("node %d's database holds %d chunks after kv.Open, want the header's one", i, n)
		}
	}
}

// TestDeadPrimaryMemoryIsReleased: a crashed primary keeps its memory (Rio),
// so after failover and repair it serves as a backup on the same database
// backing and holds nothing in the regions only a primary writes — undo log,
// control, producer lane. A power-failed primary's memory is gone: once it
// has been failed over and replaced, nothing the deployment keeps still
// reaches its database, so the collector returns that memory to the heap.
func TestDeadPrimaryMemoryIsReleased(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(*repro.Cluster) error
	}{
		{"crash", (*repro.Cluster).CrashPrimary},
		{"power-fail", repro.PowerFailPrimary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := repro.New(repro.Config{
				Version: repro.V3InlineLog,
				Backup:  repro.ActiveBackup,
				DBSize:  4 << 20,
				Backups: 2,
				Safety:  repro.QuorumSafe,
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err := kv.Open(c)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put([]byte("key"), []byte("before the crash")); err != nil {
				t.Fatal(err)
			}
			oldDB := repro.DBBackings(c)[0]
			old := weak.Make(oldDB)
			if err := tc.fault(c); err != nil {
				t.Fatal(err)
			}
			if err := c.Failover(); err != nil {
				t.Fatal(err)
			}
			if err := c.Repair(); err != nil {
				t.Fatal(err)
			}
			if err := s.Reopen(); err != nil {
				t.Fatal(err)
			}
			if err := s.Put([]byte("key"), []byte("after the repair")); err != nil {
				t.Fatal(err)
			}
			if tc.name == "crash" {
				// The survivor serves; the old primary is the last backup.
				dbs := repro.DBBackings(c)
				if len(dbs) != 3 || dbs[2] != oldDB {
					t.Fatal("the crashed primary did not re-join on its own database")
				}
				plain, rejoined := repro.RegionChunks(c, 1), repro.RegionChunks(c, 2)
				for name, n := range rejoined {
					if plain[name] == 0 && n != 0 {
						t.Errorf("the re-joined old primary holds %d chunks of %s, which no backup writes", n, name)
					}
				}
				return
			}
			oldDB = nil
			runtime.GC()
			if old.Value() != nil {
				t.Fatal("the power-failed primary's database is still reachable after failover and repair")
			}
			runtime.KeepAlive(s)
		})
	}
}
