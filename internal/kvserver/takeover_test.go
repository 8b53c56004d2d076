package kvserver

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/kv"
	"repro/kvclient"
)

// backupServed counts the routed reads a backup served, before and after
// the deployment's first failover.
type backupServed struct {
	*repro.Cluster
	before, after atomic.Int64
}

func (d *backupServed) ReadAt(off int, dst []byte, opts repro.ReadOpts) (repro.ReadResult, error) {
	res, err := d.Cluster.ReadAt(off, dst, opts)
	if err == nil && res.Replica > 0 {
		if d.Generation() == 0 {
			d.before.Add(1)
		} else {
			d.after.Add(1)
		}
	}
	return res, err
}

// TestGetsOnBackupsThroughTakeover: plain GETs — no read mode — are served
// by backups at the primary's view, and keep being served by them after
// the autopilot takes over from a crashed primary. Writers stream versioned
// PUTs and readers GET the same keys throughout; no GET reads a version
// older than one acknowledged before it was sent, and after the drain every
// acknowledged PUT reads back.
func TestGetsOnBackupsThroughTakeover(t *testing.T) {
	cfg := quorumAutopilot(repro.Config{})
	cfg.Autopilot.AutoRepair = true
	db := &backupServed{Cluster: mustCluster(t, cfg)}
	store, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{Logf: t.Logf})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	dial := func() *kvclient.Client {
		return kvclient.Dial(l.Addr().String(), kvclient.Options{Conns: 2, RetryBudget: 30 * time.Second})
	}

	const (
		writers    = 4
		perWriter  = 50
		versions   = 4
		readers    = 4
		crashAfter = 300
	)
	key := func(k int) []byte { return []byte(fmt.Sprintf("key%04d", k)) }
	val := func(k, ver int) []byte { return []byte(fmt.Sprintf("val-%d-ver%d", k, ver)) }
	var (
		acked    [writers * perWriter]atomic.Int64 // newest acked version per key, -1 for none
		ackedOps atomic.Int64
		done     atomic.Bool
		wg, rwg  sync.WaitGroup
	)
	for k := range acked {
		acked[k].Store(-1)
	}
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		for ackedOps.Load() < crashAfter || db.before.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		if err := db.CrashPrimary(); err != nil {
			t.Errorf("crash injection: %v", err)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := dial()
			defer cl.Close()
			for ver := 0; ver < versions; ver++ {
				for i := 0; i < perWriter; i++ {
					k := w*perWriter + i
					if err := cl.Put(key(k), val(k, ver)); err != nil {
						t.Errorf("put key %d ver %d: %v", k, ver, err)
						return
					}
					acked[k].Store(int64(ver))
					ackedOps.Add(1)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			cl := dial()
			defer cl.Close()
			rng := rand.New(rand.NewPCG(uint64(r), 36))
			for !done.Load() {
				k := rng.IntN(len(acked))
				floor := acked[k].Load()
				got, err := cl.Get(key(k))
				if floor < 0 {
					continue
				}
				if err != nil {
					t.Errorf("get key %d (acked ver %d): %v", k, floor, err)
					return
				}
				var gk, gv int
				if _, err := fmt.Sscanf(string(got), "val-%d-ver%d", &gk, &gv); err != nil || gk != k || int64(gv) < floor {
					t.Errorf("get key %d read %q, acked ver %d before the GET", k, got, floor)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	<-crashed
	done.Store(true)
	rwg.Wait()

	audit := dial()
	defer audit.Close()
	for k := range acked {
		want := acked[k].Load()
		if got, err := audit.Get(key(k)); err != nil || !bytes.Equal(got, val(k, int(want))) {
			t.Errorf("acked key %d (ver %d) reads %q, %v", k, want, got, err)
		}
	}
	if db.Generation() == 0 {
		t.Fatal("no takeover happened")
	}
	if db.before.Load() == 0 || db.after.Load() == 0 {
		t.Fatalf("backups served %d reads before the takeover and %d after; want some on both sides", db.before.Load(), db.after.Load())
	}
}
