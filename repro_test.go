package repro_test

import (
	"bytes"
	"errors"
	"testing"

	"repro"
)

const testDB = 4 << 20

func newCluster(t *testing.T, v repro.Version, b repro.BackupMode) *repro.Cluster {
	t.Helper()
	c, err := repro.New(repro.Config{Version: v, Backup: b, DBSize: testDB})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterLifecycleAllConfigs(t *testing.T) {
	configs := []struct {
		v repro.Version
		b repro.BackupMode
	}{
		{repro.V0Vista, repro.Standalone},
		{repro.V1MirrorCopy, repro.Standalone},
		{repro.V2MirrorDiff, repro.Standalone},
		{repro.V3InlineLog, repro.Standalone},
		{repro.V0Vista, repro.PassiveBackup},
		{repro.V1MirrorCopy, repro.PassiveBackup},
		{repro.V2MirrorDiff, repro.PassiveBackup},
		{repro.V3InlineLog, repro.PassiveBackup},
		{repro.V3InlineLog, repro.ActiveBackup},
	}
	for _, cfg := range configs {
		t.Run(cfg.v.String()+"/"+cfg.b.String(), func(t *testing.T) {
			c := newCluster(t, cfg.v, cfg.b)
			if err := c.Load(64, []byte("preloaded")); err != nil {
				t.Fatal(err)
			}
			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(0, 16))
			must(t, tx.Write(0, []byte("first-txn-write!")))
			must(t, tx.Commit())

			tx, err = c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(0, 16))
			must(t, tx.Write(0, []byte("aborted-garbage!")))
			must(t, tx.Abort())

			got := make([]byte, 16)
			c.ReadRaw(0, got)
			if string(got) != "first-txn-write!" {
				t.Fatalf("state %q", got)
			}
			if c.Committed() != 1 {
				t.Fatalf("Committed() = %d", c.Committed())
			}
			s := c.Stats()
			if s.Begins != 2 || s.Commits != 1 || s.Aborts != 1 {
				t.Fatalf("stats %+v", s)
			}
			if c.Elapsed() <= 0 {
				t.Fatal("no simulated time elapsed")
			}
		})
	}
}

func TestSettledFailoverKeepsEverything(t *testing.T) {
	for _, b := range []repro.BackupMode{repro.PassiveBackup, repro.ActiveBackup} {
		c := newCluster(t, repro.V3InlineLog, b)
		want := make([]byte, 64)
		for i := 0; i < 25; i++ {
			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(i*64, 64))
			payload := bytes.Repeat([]byte{byte(i + 1)}, 64)
			must(t, tx.Write(i*64, payload))
			must(t, tx.Commit())
		}
		c.Settle()
		must(t, c.CrashPrimary())
		must(t, c.Failover())

		if got := c.Committed(); got != 25 {
			t.Fatalf("%s: %d commits survived, want 25", b, got)
		}
		for i := 0; i < 25; i++ {
			got := make([]byte, 64)
			c.ReadRaw(i*64, got)
			copy(want, bytes.Repeat([]byte{byte(i + 1)}, 64))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: slot %d corrupted after failover", b, i)
			}
		}

		// The cluster keeps serving from the backup.
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(0, 8))
		must(t, tx.Write(0, []byte("takeover")))
		must(t, tx.Commit())
		if c.Committed() != 26 {
			t.Fatalf("post-takeover commit not counted: %d", c.Committed())
		}
	}
}

func TestCrashErrorFlow(t *testing.T) {
	c := newCluster(t, repro.V3InlineLog, repro.PassiveBackup)
	must(t, c.CrashPrimary())
	if _, err := c.Begin(); !errors.Is(err, repro.ErrCrashed) {
		t.Fatalf("Begin after crash: %v", err)
	}
	must(t, c.Failover())
	if _, err := c.Begin(); err != nil {
		t.Fatalf("Begin after failover: %v", err)
	}
}

func TestStandaloneFailoverRejected(t *testing.T) {
	c := newCluster(t, repro.V3InlineLog, repro.Standalone)
	must(t, c.CrashPrimary())
	if err := c.Failover(); !errors.Is(err, repro.ErrNoBackup) {
		t.Fatalf("standalone Failover: %v", err)
	}
}

func TestActiveRequiresV3(t *testing.T) {
	if _, err := repro.New(repro.Config{
		Version: repro.V1MirrorCopy,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
	}); err == nil {
		t.Fatal("active backup with V1 accepted")
	}
}

func TestTrafficAccounting(t *testing.T) {
	c := newCluster(t, repro.V3InlineLog, repro.PassiveBackup)
	for i := 0; i < 50; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(i*128, 32))
		must(t, tx.Write(i*128, bytes.Repeat([]byte{7}, 32)))
		must(t, tx.Commit())
	}
	c.Settle()
	tr := c.NetTraffic()
	if tr.ModifiedBytes <= 0 || tr.UndoBytes <= 0 || tr.MetaBytes <= 0 {
		t.Fatalf("traffic breakdown %+v", tr)
	}
	if tr.Total() != tr.ModifiedBytes+tr.UndoBytes+tr.MetaBytes {
		t.Fatal("Total() inconsistent")
	}
	// Undo data is a before-image of every declared range: at least the
	// modified volume here (ranges == writes).
	if tr.UndoBytes < tr.ModifiedBytes {
		t.Fatalf("undo (%d) below modified (%d)", tr.UndoBytes, tr.ModifiedBytes)
	}

	c.ResetMeasurement()
	if got := c.NetTraffic().Total(); got != 0 {
		t.Fatalf("traffic after reset: %d", got)
	}
}

func TestReadChargesTime(t *testing.T) {
	c := newCluster(t, repro.V3InlineLog, repro.Standalone)
	c.ResetMeasurement()
	buf := make([]byte, 4096)
	must(t, c.Read(0, buf))
	if c.Elapsed() <= 0 {
		t.Fatal("charged read consumed no simulated time")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeChainedFailover exercises the full cluster life through the
// public API: commit, crash, fail over, repair, commit more, crash again,
// fail over again — nothing committed is ever lost (after settling).
func TestFacadeChainedFailover(t *testing.T) {
	c := newCluster(t, repro.V3InlineLog, repro.PassiveBackup)
	commit := func(slot int, payload string) {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(slot*32, 32))
		buf := make([]byte, 32)
		copy(buf, payload)
		must(t, tx.Write(slot*32, buf))
		must(t, tx.Commit())
	}
	for i := 0; i < 20; i++ {
		commit(i, "era-one")
	}
	c.Settle()
	must(t, c.CrashPrimary())
	must(t, c.Failover())
	must(t, c.Repair())
	for i := 20; i < 40; i++ {
		commit(i, "era-two")
	}
	c.Settle()
	must(t, c.CrashPrimary())
	must(t, c.Failover())
	if got := c.Committed(); got != 40 {
		t.Fatalf("%d commits survived two failovers, want 40", got)
	}
	buf := make([]byte, 7)
	c.ReadRaw(0, buf)
	if string(buf) != "era-one" {
		t.Fatalf("era-one data lost: %q", buf)
	}
	c.ReadRaw(39*32, buf)
	if string(buf) != "era-two" {
		t.Fatalf("era-two data lost: %q", buf)
	}
}

// TestFacadeTwoSafe: with 2-safe commits even an unsettled crash loses
// nothing.
func TestFacadeTwoSafe(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
		Safety:  repro.TwoSafe,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(i*64, 8))
		must(t, tx.Write(i*64, []byte("2safe!!!")))
		must(t, tx.Commit())
	}
	must(t, c.CrashPrimary()) // no Settle on purpose
	must(t, c.Failover())
	if got := c.Committed(); got != 30 {
		t.Fatalf("2-safe cluster lost commits: %d of 30", got)
	}
}

// TestAbortedUndoIsNotReplayed: an abort leaves the committed count — and so
// the next transaction's undo tag — where it was; bytes installed after it
// must survive every later undo: an empty transaction's abort, a takeover
// with nothing in flight, a takeover rolling back a shorter transaction.
func TestAbortedUndoIsNotReplayed(t *testing.T) {
	versions := []repro.Version{repro.V0Vista, repro.V1MirrorCopy, repro.V2MirrorDiff, repro.V3InlineLog}
	for _, v := range versions {
		for _, b := range []repro.BackupMode{repro.PassiveBackup, repro.ActiveBackup} {
			if b == repro.ActiveBackup && v != repro.V3InlineLog {
				continue
			}
			for _, later := range []string{"empty abort", "takeover", "takeover of a shorter transaction"} {
				t.Run(v.String()+"/"+b.String()+"/"+later, func(t *testing.T) {
					c := newCluster(t, v, b)
					tx, err := c.Begin()
					must(t, err)
					must(t, tx.SetRange(0, 8))
					must(t, tx.Write(0, []byte("AAAAAAAA")))
					must(t, tx.SetRange(64, 8))
					must(t, tx.Write(64, []byte("AAAAAAAA")))
					must(t, tx.Abort())
					c.Settle() // a raw Load does not queue behind buffered restores
					must(t, c.Load(0, []byte("BBBBBBBB")))
					must(t, c.Load(64, []byte("BBBBBBBB")))

					switch later {
					case "empty abort":
						tx, err = c.Begin()
						must(t, err)
						must(t, tx.Abort())
					case "takeover of a shorter transaction":
						tx, err = c.Begin()
						must(t, err)
						must(t, tx.SetRange(128, 8))
						must(t, tx.Write(128, []byte("CCCCCCCC")))
						fallthrough
					case "takeover":
						c.Settle()
						must(t, c.CrashPrimary())
						must(t, c.Failover())
					}
					got := make([]byte, 136)
					c.ReadRaw(0, got)
					want := make([]byte, 136)
					copy(want, "BBBBBBBB")
					copy(want[64:], "BBBBBBBB")
					if !bytes.Equal(got, want) {
						t.Fatalf("a later undo replayed the aborted transaction: %q / %q / %q", got[:8], got[64:72], got[128:])
					}
				})
			}
		}
	}
}
