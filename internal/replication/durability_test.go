package replication_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"testing"

	"repro/internal/replication"
	"repro/internal/vista"
)

const durDB = 1 << 16

// durGroup opens a group with the disk tier on dir.
func durGroup(t *testing.T, dir string, mode replication.Mode, backups int, safety replication.Safety, batch int) *replication.Group {
	t.Helper()
	g, err := replication.NewGroup(replication.Config{
		Mode:        mode,
		Store:       vista.Config{Version: vista.V3InlineLog, DBSize: durDB},
		Backups:     backups,
		Safety:      safety,
		CommitBatch: batch,
		Durability: replication.DurabilityConfig{
			Dir:           dir,
			SnapshotEvery: 40,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// durCommit runs transaction k of the deterministic workload: a 16-byte
// self-describing value into slot k mod 61.
func durCommit(t *testing.T, g *replication.Group, k uint64) {
	t.Helper()
	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	off := int(k%61) * 64
	var val [16]byte
	for i := range val[:8] {
		val[i] = byte(k >> (8 * i))
		val[i+8] = ^val[i]
	}
	if err := tx.SetRange(off, 64); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(off, val[:]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// durAbort opens a transaction that writes a slot past every one the
// workload uses and aborts it: no commit frame may carry those bytes.
func durAbort(t *testing.T, g *replication.Group) {
	t.Helper()
	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	off := 61 * 64
	if err := tx.SetRange(off, 16); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(off, bytes.Repeat([]byte{0xa5}, 16)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// durOracle is the expected image after transactions 1..seq.
func durOracle(seq uint64) []byte {
	img := make([]byte, durDB)
	for k := uint64(1); k <= seq; k++ {
		off := int(k%61) * 64
		for i := 0; i < 8; i++ {
			img[off+i] = byte(k >> (8 * i))
			img[off+i+8] = ^img[off+i]
		}
	}
	return img
}

func durCheckImage(t *testing.T, g *replication.Group, seq uint64) {
	t.Helper()
	got := make([]byte, durDB)
	g.ReadRaw(0, got)
	if !bytes.Equal(got, durOracle(seq)) {
		t.Fatalf("recovered image does not match the oracle at seq %d", seq)
	}
}

func TestDurabilityOffByDefault(t *testing.T) {
	g := newGroup(t, replication.Passive, 1, replication.TwoSafe)
	if st := g.Durability(); st.Enabled {
		t.Fatal("durability enabled without configuration")
	}
	if err := g.PowerFail(); !errors.Is(err, replication.ErrNoDurability) {
		t.Fatalf("PowerFail without durability: err = %v", err)
	}
	if g.WALDirs() != nil || g.WALTails() != nil {
		t.Fatal("WAL handles exist without durability")
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close without durability: %v", err)
	}
}

// TestDurabilityColdRestart: a clean shutdown (Settle makes everything
// durable) followed by a full-cluster power loss recovers every
// transaction on reopen, across Standalone and a replicated mode. A
// transaction aborted after the last checkpoint (at 120) leaves nothing
// in the replayed tail.
func TestDurabilityColdRestart(t *testing.T) {
	cases := []struct {
		name    string
		mode    replication.Mode
		backups int
		safety  replication.Safety
	}{
		{"standalone", replication.Standalone, 0, replication.OneSafe},
		{"passive-2safe", replication.Passive, 2, replication.TwoSafe},
		{"active-quorum", replication.Active, 2, replication.QuorumSafe},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g := durGroup(t, dir, tc.mode, tc.backups, tc.safety, 8)
			const n = 123
			for k := uint64(1); k <= n; k++ {
				durCommit(t, g, k)
				if k == n-2 {
					durAbort(t, g)
				}
			}
			g.Settle(g.QuiesceGrace())
			st := g.Durability()
			if !st.Enabled || st.Seq != n || st.DurableSeq != n {
				t.Fatalf("status seq=%d durable=%d, want %d durable", st.Seq, st.DurableSeq, n)
			}
			if err := g.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if err := g.PowerFail(); !errors.Is(err, replication.ErrCrashed) {
				t.Fatalf("second PowerFail: err = %v", err)
			}

			g2 := durGroup(t, dir, tc.mode, tc.backups, tc.safety, 8)
			rec := g2.Durability().Recovery
			if !rec.Recovered || rec.Seq != n {
				t.Fatalf("recovery = %+v, want recovered at seq %d", rec, n)
			}
			if got := g2.Committed(); got != n {
				t.Fatalf("recovered committed count %d, want %d", got, n)
			}
			durCheckImage(t, g2, n)
			// The restarted group must serve and replicate as usual.
			durCommit(t, g2, n+1)
			g2.Settle(g2.QuiesceGrace())
			durCheckImage(t, g2, n+1)
			if err := g2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurabilityTornTail: a power loss mid-load, with the unsynced tail
// of every replica's live segment torn, bit-flipped or zero-filled,
// recovers at least the synced (acked-durable) prefix and an image that
// exactly matches the oracle at whatever sequence it recovered.
func TestDurabilityTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBEEF))
	for it := 0; it < 6; it++ {
		dir := t.TempDir()
		g := durGroup(t, dir, replication.Passive, 2, replication.TwoSafe, 8)
		total := uint64(90 + rng.Intn(80))
		for k := uint64(1); k <= total; k++ {
			durCommit(t, g, k)
		}
		durable := g.Durability().DurableSeq
		if err := g.PowerFail(); err != nil {
			t.Fatal(err)
		}
		for _, tail := range g.WALTails() {
			tearSegmentTail(t, rng, tail.Path, tail.Synced)
		}

		g2 := durGroup(t, dir, replication.Passive, 2, replication.TwoSafe, 8)
		got := g2.Committed()
		if got < durable || got > total {
			t.Fatalf("iter %d: recovered seq %d outside [%d,%d]", it, got, durable, total)
		}
		durCheckImage(t, g2, got)
		if err := g2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// tearSegmentTail corrupts a segment strictly past its synced offset.
func tearSegmentTail(t *testing.T, rng *rand.Rand, path string, synced int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil || info.Size() <= synced {
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail := buf[synced:]
	switch rng.Intn(4) {
	case 0: // intact
	case 1: // torn
		buf = buf[:synced+int64(rng.Intn(len(tail)+1))]
	case 2: // bit flips
		for i := 0; i < 3; i++ {
			tail[rng.Intn(len(tail))] ^= 1 << uint(rng.Intn(8))
		}
	case 3: // zero-filled range
		from := rng.Intn(len(tail))
		to := from + rng.Intn(len(tail)-from) + 1
		for i := from; i < to; i++ {
			tail[i] = 0
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityFailoverEraFencing: after a crash and failover, the
// promoted lineage keeps writing under a new era; a later power loss
// recovers the promoted lineage — never the deposed primary's orphaned
// tail, even though its directory may hold higher old-era sequences.
func TestDurabilityFailoverEraFencing(t *testing.T) {
	dir := t.TempDir()
	g := durGroup(t, dir, replication.Passive, 2, replication.TwoSafe, 4)
	for k := uint64(1); k <= 50; k++ {
		durCommit(t, g, k)
	}
	if err := g.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Failover(); err != nil {
		t.Fatal(err)
	}
	promoted := g.Committed()
	for k := promoted + 1; k <= promoted+30; k++ {
		durCommit(t, g, k)
	}
	g.Settle(g.QuiesceGrace())
	want := promoted + 30
	if err := g.PowerFail(); err != nil {
		t.Fatal(err)
	}

	g2 := durGroup(t, dir, replication.Passive, 2, replication.TwoSafe, 4)
	if got := g2.Committed(); got != want {
		t.Fatalf("recovered committed %d, want the promoted lineage at %d", got, want)
	}
	durCheckImage(t, g2, want)
	if err := g2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityRestartRejoinsLaggard: a backup whose directory froze at
// an old prefix (it was paused well before the power loss) lags the
// winner at cold restart and must rejoin through the chunked transfer
// engine; the restarted group emerges at full redundancy.
func TestDurabilityRestartRejoinsLaggard(t *testing.T) {
	// 1-safe, so the primary keeps committing while backup 1 is paused.
	dir := t.TempDir()
	g := durGroup(t, dir, replication.Passive, 2, replication.OneSafe, 4)
	for k := uint64(1); k <= 30; k++ {
		durCommit(t, g, k)
	}
	if err := g.PauseBackup(1); err != nil {
		t.Fatal(err)
	}
	for k := uint64(31); k <= 80; k++ {
		durCommit(t, g, k)
	}
	g.Settle(g.QuiesceGrace())
	if err := g.PowerFail(); err != nil {
		t.Fatal(err)
	}

	g2 := durGroup(t, dir, replication.Passive, 2, replication.OneSafe, 4)
	rec := g2.Durability().Recovery
	if !rec.Recovered || rec.Seq != 80 {
		t.Fatalf("recovery = %+v, want seq 80", rec)
	}
	if rec.Rejoined == 0 {
		t.Fatalf("recovery = %+v, want at least one chunked rejoin", rec)
	}
	for i := 0; i < 2; i++ {
		if st := g2.BackupState(i); st != replication.StateInSync {
			t.Fatalf("backup %d restarted in state %v", i, st)
		}
	}
	durCheckImage(t, g2, 80)
	// The rejoined replica participates in durability again: another
	// clean restart recovers through it too.
	durCommit(t, g2, 81)
	g2.Settle(g2.QuiesceGrace())
	if err := g2.PowerFail(); err != nil {
		t.Fatal(err)
	}
	g3 := durGroup(t, dir, replication.Passive, 2, replication.OneSafe, 4)
	if got := g3.Committed(); got != 81 {
		t.Fatalf("second restart recovered %d, want 81", got)
	}
	if err := g3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityMetricsUnchanged: with the tier off, nothing differs;
// with it on, the simulated clock and SAN counters are bit-for-bit those
// of a group without it — the disk is host-side bookkeeping only.
func TestDurabilityMetricsUnchanged(t *testing.T) {
	run := func(dir string) (uint64, int64) {
		cfg := replication.Config{
			Mode:        replication.Passive,
			Store:       vista.Config{Version: vista.V3InlineLog, DBSize: durDB},
			Backups:     2,
			Safety:      replication.TwoSafe,
			CommitBatch: 8,
		}
		if dir != "" {
			cfg.Durability = replication.DurabilityConfig{Dir: dir, SnapshotEvery: 20}
		}
		g, err := replication.NewGroup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 100; k++ {
			durCommit(t, g, k)
		}
		g.Settle(g.QuiesceGrace())
		var net int64
		for _, v := range g.NetBytes() {
			net += v
		}
		return uint64(g.Elapsed()), net
	}
	bareT, bareN := run("")
	durT, durN := run(t.TempDir())
	if bareT != durT || bareN != durN {
		t.Fatalf("durability perturbed the simulation: elapsed %d vs %d, net %d vs %d",
			bareT, durT, bareN, durN)
	}
}
