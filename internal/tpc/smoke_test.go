package tpc

import (
	"testing"

	"repro/internal/replication"
	"repro/internal/vista"
)

// TestSmokeAllModes drives a small Debit-Credit run through every
// version/mode combination and verifies the primary database against
// Replay.
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
	opts := Options{Txns: 500, Warmup: 50, Seed: 42, AbortEvery: 7}
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

	// The replicated store must hold exactly what the reference executor
	// computes for the same seed and abort schedule.
	db := make([]byte, dbSize)
	pair.Store().ReadRaw(0, db)
	w2, err := NewDebitCredit(dbSize)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(w2, opts, opts.Txns)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if i := firstMismatch(replayed, db); i >= 0 {
		t.Fatalf("primary state diverges from Replay at offset %d (%#x != %#x)", i, db[i], replayed[i])
	}

	t.Logf("%s %s: %.0f sim-TPS, %d net bytes", mode, v, res.TPS, res.NetTotal())
}
