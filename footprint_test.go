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

// TestDeadPrimaryMemoryIsReleased: once a crashed primary has been failed
// over and replaced, nothing the deployment keeps still reaches its
// database, so the collector returns that memory to the heap.
func TestDeadPrimaryMemoryIsReleased(t *testing.T) {
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
	old := weak.Make(repro.DBBackings(c)[0])
	if err := c.CrashPrimary(); err != nil {
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
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("the dead primary's database is still reachable after failover and repair")
	}
	runtime.KeepAlive(s)
}
