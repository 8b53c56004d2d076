package replication_test

import (
	"errors"
	"testing"

	"repro/internal/replication"
	"repro/internal/tpc"
	"repro/internal/vista"
)

func TestTwoSafeRequiresBackup(t *testing.T) {
	if _, err := replication.NewGroup(replication.Config{
		Mode:   replication.Standalone,
		Store:  vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Safety: replication.TwoSafe,
	}); !errors.Is(err, replication.ErrSafetyNeedsBackup) {
		t.Fatalf("2-safe standalone accepted: %v", err)
	}
	if _, err := replication.NewGroup(replication.Config{
		Mode:   replication.Standalone,
		Store:  vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Safety: replication.QuorumSafe,
	}); !errors.Is(err, replication.ErrSafetyNeedsBackup) {
		t.Fatalf("quorum standalone accepted: %v", err)
	}
}

// TestTwoSafeClosesTheWindow: with 2-safe commits, a crash at ANY moment —
// no settling — loses nothing: every commit that returned is on the backup.
func TestTwoSafeClosesTheWindow(t *testing.T) {
	pair, err := replication.NewGroup(replication.Config{
		Mode:   replication.Active,
		Store:  vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
		Safety: replication.TwoSafe,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tpc.NewDebitCredit(testDB)
	if err != nil {
		t.Fatal(err)
	}
	opts := tpc.Options{Txns: 250, Seed: 13}
	if _, err := tpc.Run(pair, w, opts); err != nil {
		t.Fatal(err)
	}
	// Crash immediately: no Settle, no drain grace.
	if err := pair.Crash(); err != nil {
		t.Fatal(err)
	}
	st, err := pair.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Committed(); got != 250 {
		t.Fatalf("2-safe lost commits: %d of 250 survived", got)
	}
	verifyCommittedPrefix(t, st, opts, 250, 0, false)
}

// TestTwoSafeCostsThroughput: closing the window must cost simulated time
// (a SAN round trip plus the backup's apply per commit).
func TestTwoSafeCostsThroughput(t *testing.T) {
	run := func(safety replication.Safety) float64 {
		pair, err := replication.NewGroup(replication.Config{
			Mode:   replication.Active,
			Store:  vista.Config{Version: vista.V3InlineLog, DBSize: testDB},
			Safety: safety,
		})
		if err != nil {
			t.Fatal(err)
		}
		w, err := tpc.NewDebitCredit(testDB)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tpc.Run(pair, w, tpc.Options{Txns: 400, Warmup: 50, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.TPS
	}
	oneSafe, twoSafe := run(replication.OneSafe), run(replication.TwoSafe)
	if twoSafe >= oneSafe {
		t.Fatalf("2-safe (%0.f) not slower than 1-safe (%0.f)", twoSafe, oneSafe)
	}
	// The latency hit is a round trip (~6-7us) per commit: substantial
	// but not catastrophic at these transaction sizes.
	if twoSafe < oneSafe/20 {
		t.Fatalf("2-safe collapsed: %0.f vs %0.f", twoSafe, oneSafe)
	}
}
