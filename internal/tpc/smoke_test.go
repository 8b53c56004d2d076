package tpc

import (
	"testing"

	"repro/internal/replication"
	"repro/internal/vista"
)

// TestSmokeAllModes drives a small Debit-Credit run through every
// version/mode combination and verifies the primary database against the
// oracle.
func TestSmokeAllModes(t *testing.T) {
	const dbSize = 8 << 20
	versions := []vista.Version{vista.V0Vista, vista.V1MirrorCopy, vista.V2MirrorDiff, vista.V3InlineLog}
	modes := []replication.Mode{replication.Standalone, replication.Passive}

	for _, mode := range modes {
		for _, v := range versions {
			t.Run(mode.String()+"/"+v.String(), func(t *testing.T) {
				runSmoke(t, mode, v, dbSize)
			})
		}
	}
	t.Run("Active/V3", func(t *testing.T) {
		runSmoke(t, replication.Active, vista.V3InlineLog, dbSize)
	})
}

func runSmoke(t *testing.T, mode replication.Mode, v vista.Version, dbSize int) {
	t.Helper()
	pair, err := replication.NewGroup(replication.Config{
		Mode:  mode,
		Store: vista.Config{Version: v, DBSize: dbSize},
	})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	w, err := NewDebitCredit(dbSize)
	if err != nil {
		t.Fatalf("NewDebitCredit: %v", err)
	}
	oracle := NewOracle(dbSize)
	opts := Options{Txns: 500, Warmup: 50, Seed: 42, Oracle: oracle, AbortEvery: 7}
	if err := w.Populate(oracle.Load); err != nil {
		t.Fatalf("populate oracle: %v", err)
	}
	res, err := Run(pair, w, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Txns != opts.Txns {
		t.Fatalf("committed %d txns, want %d", res.Txns, opts.Txns)
	}
	if res.TPS <= 0 {
		t.Fatalf("non-positive TPS %v (elapsed %v)", res.TPS, res.Elapsed)
	}

	db := make([]byte, dbSize)
	pair.Store().ReadRaw(0, db)
	if err := oracle.Compare(db); err != nil {
		t.Fatalf("primary state: %v", err)
	}

	// Replay must agree with the live oracle.
	w2, err := NewDebitCredit(dbSize)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(w2, opts, opts.Txns)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := oracle.Compare(replayed); err == nil {
		// Compare checks db against shadow; use it in reverse to check
		// replay against shadow.
		if i := firstMismatch(replayed, oracle.Shadow()); i >= 0 {
			t.Fatalf("replay diverges from oracle at %d", i)
		}
	} else {
		t.Fatalf("replay state: %v", err)
	}

	t.Logf("%s %s: %.0f sim-TPS, %d net bytes", mode, v, res.TPS, res.NetTotal())
}
