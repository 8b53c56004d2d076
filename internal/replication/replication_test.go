package replication_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tpc"
	"repro/internal/vista"
)

const testDB = 8 << 20

func newPair(t *testing.T, mode replication.Mode, v vista.Version) *replication.Group {
	t.Helper()
	pair, err := replication.NewGroup(replication.Config{
		Mode:  mode,
		Store: vista.Config{Version: v, DBSize: testDB},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func TestNewPairValidation(t *testing.T) {
	if _, err := replication.NewGroup(replication.Config{
		Mode:  replication.Active,
		Store: vista.Config{Version: vista.V1MirrorCopy, DBSize: testDB},
	}); !errors.Is(err, replication.ErrActiveNeedV3) {
		t.Fatalf("active+V1: %v", err)
	}
	if _, err := replication.NewGroup(replication.Config{
		Mode:  replication.Mode(42),
		Store: vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
	}); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if _, err := replication.NewGroup(replication.Config{
		Mode:  replication.Standalone,
		Store: vista.Config{Version: vista.V3InlineLog, DBSize: -1},
	}); err == nil {
		t.Fatal("invalid store config accepted")
	}
}

func TestModeString(t *testing.T) {
	if replication.Standalone.String() != "Standalone" ||
		replication.Passive.String() != "Passive" ||
		replication.Active.String() != "Active" {
		t.Fatal("mode names changed")
	}
}

func TestFailoverPreconditions(t *testing.T) {
	standalone := newPair(t, replication.Standalone, vista.V3InlineLog)
	if err := standalone.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := standalone.Failover(); !errors.Is(err, replication.ErrNoBackup) {
		t.Fatalf("standalone failover: %v", err)
	}

	pair := newPair(t, replication.Passive, vista.V3InlineLog)
	if _, err := pair.Failover(); !errors.Is(err, replication.ErrNotCrashed) {
		t.Fatalf("failover before crash: %v", err)
	}
	if err := pair.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := pair.Crash(); !errors.Is(err, replication.ErrCrashed) {
		t.Fatalf("double crash: %v", err)
	}
	if _, err := pair.Begin(); !errors.Is(err, replication.ErrCrashed) {
		t.Fatalf("begin after crash: %v", err)
	}
	if _, err := pair.Failover(); err != nil {
		t.Fatal(err)
	}
	// The group rewires itself at failover: a second Failover needs a new
	// crash first.
	if _, err := pair.Failover(); !errors.Is(err, replication.ErrNotCrashed) {
		t.Fatalf("double failover: %v", err)
	}
}

// driveAndCrash commits `commits` Debit-Credit transactions, optionally
// schedules a packet-level crash mid-run, then crashes and fails over.
// It returns the takeover store and the workload options used (for
// reconstructing reference states via tpc.Replay).
func driveAndCrash(t *testing.T, mode replication.Mode, v vista.Version,
	commits int64, crashAfterPackets int64) (*vista.Store, tpc.Options) {
	t.Helper()
	pair := newPair(t, mode, v)
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	opts := tpc.Options{Txns: commits, Seed: 77}
	if crashAfterPackets > 0 {
		pair.Primary().MC.CrashAfterPackets(crashAfterPackets)
	}
	if _, err := tpc.Run(pair, w, opts); err != nil {
		t.Fatal(err)
	}
	if err := pair.Crash(); err != nil {
		t.Fatal(err)
	}
	st, err := pair.Failover()
	if err != nil {
		t.Fatal(err)
	}
	return st, opts
}

// verifyCommittedPrefix checks 1-safe semantics: the takeover store serves
// the state after exactly K committed transactions for its claimed K, and
// K is within the window of the primary's commit count. For the mirroring
// versions the transaction that was mid-commit may additionally be torn
// across its declared ranges; tornOK widens the check accordingly.
func verifyCommittedPrefix(t *testing.T, st *vista.Store, opts tpc.Options, primaryCommits int64, window int64, tornOK bool) {
	t.Helper()
	k := int64(st.Committed())
	if k > primaryCommits {
		t.Fatalf("backup claims %d commits, primary did %d", k, primaryCommits)
	}
	if primaryCommits-k > window {
		t.Fatalf("backup lost %d commits, window allows %d", primaryCommits-k, window)
	}

	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tpc.Replay(w, opts, k)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testDB)
	st.ReadRaw(0, got)
	if bytes.Equal(got, ref) {
		return
	}
	if !tornOK {
		t.Fatalf("takeover state does not match reference after %d commits (first diff at %d)",
			k, firstDiff(got, ref))
	}
	// Torn-tail tolerance: every divergent byte must be explainable by
	// transaction K+1 — i.e. it must match the state after K+1 commits.
	w2, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	next, err := tpc.Replay(w2, opts, k+1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != ref[i] && got[i] != next[i] {
			t.Fatalf("byte %d (=%#x) matches neither state K (%#x) nor K+1 (%#x)",
				i, got[i], ref[i], next[i])
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestFailoverCleanCrash(t *testing.T) {
	// Crash between transactions: everything except at most the last
	// few in-buffer commits survives.
	cases := []struct {
		mode   replication.Mode
		v      vista.Version
		window int64
		torn   bool
	}{
		{replication.Passive, vista.V0Vista, 4, false},
		{replication.Passive, vista.V1MirrorCopy, 4, true},
		{replication.Passive, vista.V2MirrorDiff, 4, true},
		{replication.Passive, vista.V3InlineLog, 4, false},
		{replication.Active, vista.V3InlineLog, 4, false},
	}
	for _, c := range cases {
		t.Run(c.mode.String()+"/"+c.v.String(), func(t *testing.T) {
			const commits = 400
			st, opts := driveAndCrash(t, c.mode, c.v, commits, 0)
			verifyCommittedPrefix(t, st, opts, commits, c.window, c.torn)
		})
	}
}

func TestFailoverMidStreamCrash(t *testing.T) {
	// Packet-level injection: the backup's view freezes at an arbitrary
	// packet boundary, very likely mid-commit.
	cases := []struct {
		mode   replication.Mode
		v      vista.Version
		window int64
		torn   bool
	}{
		{replication.Passive, vista.V0Vista, 8, true},
		{replication.Passive, vista.V1MirrorCopy, 8, true},
		{replication.Passive, vista.V2MirrorDiff, 8, true},
		{replication.Passive, vista.V3InlineLog, 8, true},
		{replication.Active, vista.V3InlineLog, 8, false},
	}
	for _, c := range cases {
		for _, pkts := range []int64{50, 137, 503, 1009} {
			st, opts := driveAndCrash(t, c.mode, c.v, 300, pkts)
			verifyCommittedPrefix(t, st, opts, 300, 300, c.torn)
			_ = st
			_ = pkts
		}
	}
}

func TestTakeoverServesNewTransactions(t *testing.T) {
	st, _ := driveAndCrash(t, replication.Passive, vista.V3InlineLog, 100, 0)
	tx, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(0, 16); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(0, []byte("life-after-death")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	st.ReadRaw(0, got)
	if string(got) != "life-after-death" {
		t.Fatalf("takeover store write lost: %q", got)
	}
}

func TestActiveRingWraparound(t *testing.T) {
	// A ring far smaller than the run's redo volume forces wrap markers
	// and space reuse; state must stay exact.
	params := sim.Default()
	params.RingBytes = 4096
	pair, err := replication.NewGroup(replication.Config{
		Mode:   replication.Active,
		Store:  vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Params: &params,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	opts := tpc.Options{Txns: 500, Seed: 3}
	if _, err := tpc.Run(pair, w, opts); err != nil {
		t.Fatal(err)
	}
	if err := pair.Crash(); err != nil {
		t.Fatal(err)
	}
	st, err := pair.Failover()
	if err != nil {
		t.Fatal(err)
	}
	verifyCommittedPrefix(t, st, opts, 500, 4, false)
}

func TestPassiveBackupSeesNoTrafficWhenStandalone(t *testing.T) {
	pair := newPair(t, replication.Standalone, vista.V3InlineLog)
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tpc.Run(pair, w, tpc.Options{Txns: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetTotal() != 0 {
		t.Fatalf("standalone run shipped %d bytes", res.NetTotal())
	}
	if pair.Backup() != nil {
		t.Fatal("standalone pair has a backup node")
	}
}

func TestNetBytesCategories(t *testing.T) {
	pair := newPair(t, replication.Passive, vista.V3InlineLog)
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpc.Run(pair, w, tpc.Options{Txns: 200, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	pair.Settle(10 * sim.Microsecond)
	n := pair.NetBytes()
	for _, c := range []struct {
		name string
		got  int64
	}{
		{"modified", n[1]}, {"undo", n[2]}, {"meta", n[3]},
	} {
		if c.got <= 0 {
			t.Fatalf("category %s shipped %d bytes", c.name, c.got)
		}
	}
}

func TestSettleMakesCommitsDurable(t *testing.T) {
	for _, mode := range []replication.Mode{replication.Passive, replication.Active} {
		pair := newPair(t, mode, vista.V3InlineLog)
		w, err := tpc.NewDebitCredit(testDB)
		if err != nil {
			t.Fatal(err)
		}
		opts := tpc.Options{Txns: 120, Seed: 9}
		if _, err := tpc.Run(pair, w, opts); err != nil {
			t.Fatal(err)
		}
		pair.Settle(20 * sim.Microsecond)
		if err := pair.Crash(); err != nil {
			t.Fatal(err)
		}
		st, err := pair.Failover()
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Committed(); got != 120 {
			t.Fatalf("%s: %d commits survived a settled crash, want all 120", mode, got)
		}
		verifyCommittedPrefix(t, st, opts, 120, 0, false)
	}
}
