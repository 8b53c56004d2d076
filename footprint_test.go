package repro_test

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
	"weak"

	"repro"
	"repro/kv"
)

// TestFreshStoreHoldsOnlyItsHeader: a node holds only the memory it wrote.
// Opening a kv store on a fresh 64 MiB deployment writes its header, so every
// node's database holds the one page with the header and nothing else.
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
		if n := b.Pages(); n != 1 {
			t.Errorf("node %d's database holds %d pages after kv.Open, want the header's one", i, n)
		}
	}
}

// TestDeadPrimaryMemoryIsReleased: a crashed primary keeps its memory (Rio),
// so after failover and repair it serves as a backup on the same database
// backing and holds nothing in the regions only a primary writes — undo log,
// control, producer lane. A power-failed primary's memory is gone: once it
// has been failed over and replaced, nothing the deployment keeps still
// reaches its database, so the collector drops it and its memory goes back
// to the host.
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
				plain, rejoined := repro.RegionPages(c, 1), repro.RegionPages(c, 2)
				for name, n := range rejoined {
					if plain[name] == 0 && n != 0 {
						t.Errorf("the re-joined old primary holds %d pages of %s, which no backup writes", n, name)
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

// TestDroppedDeploymentsReturnTheirMemory: a node's memory is mapped outside
// the Go heap, and a cleanup unmaps it once the deployment is unreachable.
// Eight 64 MiB deployments, each loaded in full and dropped, leave the
// process's resident set within two deployments of where it started once
// the collector has run. Race builds keep the memory on the heap, so the
// test is for the mapped path alone.
func TestDroppedDeploymentsReturnTheirMemory(t *testing.T) {
	if runtime.GOOS != "linux" || raceEnabled {
		t.Skip("the mapped backing is measured through Linux's /proc under a non-race build")
	}
	const size = 64 << 20
	data := bytes.Repeat([]byte{0x5A}, size)
	runtime.GC()
	start := vmRSS(t)
	for i := 0; i < 8; i++ {
		c, err := repro.New(repro.Config{Version: repro.V3InlineLog, DBSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(0, data); err != nil {
			t.Fatal(err)
		}
	}
	end := vmRSS(t)
	for deadline := time.Now().Add(10 * time.Second); end-start > 2*size && time.Now().Before(deadline); end = vmRSS(t) {
		runtime.GC() // queues the cleanups of the backings it found unreachable
		time.Sleep(10 * time.Millisecond)
	}
	if end-start > 2*size {
		t.Fatalf("resident set grew by %d MiB over eight dropped %d MiB deployments", (end-start)>>20, size>>20)
	}
	runtime.KeepAlive(data)
}

// vmRSS returns the process's resident set in bytes, from /proc/self/status.
func vmRSS(t *testing.T) int {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := bytes.Cut(status, []byte("VmRSS:"))
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	kb, err := strconv.Atoi(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(line), []byte("kB")))))
	if err != nil {
		t.Fatalf("VmRSS in /proc/self/status: %v", err)
	}
	return kb << 10
}
