package tpc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro"
)

// RunDurability is the crash-recovery scenario family of the disk tier: a
// committed workload is cut down by a full-cluster power loss at a seeded
// kill point — every machine at once, backups included — the unsynced
// tail of each replica's WAL is optionally torn, bit-flipped or
// zero-filled, and a cold restart over the same durability directory must
// come back with every acked-durable transaction and an image that
// exactly matches the deterministic replay oracle at whatever sequence it
// recovered. The driver measures what an operator would: host wall time
// from "power restored" to "serving again", records replayed, bytes
// truncated, and — the invariant the whole tier exists for — fails on any
// lost acked write.

// Corrupt-tail modes a power loss may leave behind (the unsynced tail of
// the live WAL segment sat in the page cache; anything can have happened
// to it).
const (
	// TailIntact leaves the files exactly as the page cache flushed them.
	TailIntact = "intact"
	// TailTorn truncates the tail mid-record (a partial sector write).
	TailTorn = "torn"
	// TailBitFlip flips a few bits in the tail (a misdirected or
	// corrupted sector).
	TailBitFlip = "bit-flip"
	// TailZeroed zero-fills a range of the tail (an unwritten extent
	// read back as zeros).
	TailZeroed = "zero-fill"
	// TailMixed draws one of the four outcomes per replica, seeded.
	TailMixed = "mixed"
)

// durabilityTxns bounds a drill's workload: the power fails after a seeded
// number of committed transactions in [durabilityTxns/2, durabilityTxns].
// The bound is fixed because recovery cost is a function of the snapshot
// interval and the tail, not of how long the run was.
const durabilityTxns = 240

// DurabilityResult is the measured record of one kill-and-restart drill.
type DurabilityResult struct {
	// Total is the locally committed transaction count at the instant
	// the power failed; AckedDurable is the prefix the last fdatasync
	// had covered — the transactions whose loss would be a lie to the
	// client.
	Total        uint64
	AckedDurable uint64
	// Recovered is the committed count the cold restart came back with.
	// It lies in [AckedDurable, Total], or the drill fails: the unsynced
	// tail may or may not have survived the tearing, the synced prefix
	// must have.
	Recovered uint64
	// Recovery is what the cold restart found on disk: the winning
	// snapshot, the WAL records replayed over it, the corrupt bytes
	// truncated, and how the replicas came back.
	Recovery repro.RecoveryInfo
	// RecoveryWall is the host wall time of the cold restart (the
	// construction of the restarted deployment) — the only number in
	// the package measured on the host clock, because disk recovery is
	// host work, not simulated work.
	RecoveryWall time.Duration
	// Tails counts the WAL segments the drill corrupted.
	Tails int
}

// RunDurability runs one kill-and-restart drill, leaving the unsynced WAL
// tails to the corrupt treatment (one of the Tail* constants); seed feeds
// the workload, the kill point and the corruption draws, making the whole
// drill reproducible. open constructs the deployment; it is called twice —
// once for the doomed incarnation, once, after the power loss and tail
// corruption, for the cold restart — and must return a deployment over the
// same Durability.Dir both times.
// The drill needs a single replica group (Shards() == 1): the replay
// oracle reconstructs "state after K commits", which has no meaning
// across independently-failing shards.
func RunDurability(open func() (*repro.Cluster, error), w Workload, corrupt string, seed uint64) (DurabilityResult, error) {
	var res DurabilityResult
	switch corrupt {
	case TailIntact, TailTorn, TailBitFlip, TailZeroed, TailMixed:
	default:
		return res, fmt.Errorf("tpc: unknown corrupt-tail mode %q", corrupt)
	}

	db, err := open()
	if err != nil {
		return res, err
	}
	if db.Shards() != 1 {
		return res, errors.New("tpc: durability drill needs a single replica group")
	}
	if !db.Durability().Enabled {
		return res, errors.New("tpc: durability drill needs Config.Durability")
	}
	one, _, err := Stream(db, w, seed)
	if err != nil {
		return res, err
	}
	kills := NewRand(seed ^ 0xD15C)
	kill := durabilityTxns/2 + kills.IntN(durabilityTxns/2+1)
	for i := 0; i < kill; i++ {
		if err := one(); err != nil {
			return res, fmt.Errorf("tpc: txn %d: %w", i, err)
		}
	}
	res.Total = db.Committed()
	res.AckedDurable = db.Durability().DurableSeq
	if err := db.PowerFail(); err != nil {
		return res, fmt.Errorf("tpc: power fail: %w", err)
	}
	tails := db.WALTails()
	res.Tails = len(tails)
	for _, tail := range tails {
		if err := corruptTail(kills, corrupt, tail); err != nil {
			return res, fmt.Errorf("tpc: corrupt %s: %w", tail.Path, err)
		}
	}

	wallStart := time.Now()
	db2, err := open()
	if err != nil {
		return res, fmt.Errorf("tpc: cold restart: %w", err)
	}
	res.RecoveryWall = time.Since(wallStart)
	res.Recovery = db2.Durability().Recovery
	res.Recovered = db2.Committed()
	if res.Recovered < res.AckedDurable || res.Recovered > res.Total {
		return res, fmt.Errorf("tpc: recovered %d commits outside [%d acked durable, %d committed]", res.Recovered, res.AckedDurable, res.Total)
	}
	// The recovered image must be exactly "state after Recovered
	// commits" of the deterministic workload — not one byte of a torn
	// transaction applied, not one byte of a recovered one missing.
	if err := auditImage(db2, w, seed, int64(res.Recovered)); err != nil {
		return res, err
	}

	// The restarted deployment serves: continue the stream where the
	// recovered prefix ends, then shut down cleanly.
	st2 := &stream{begin: db2.Begin, w: w, r: NewRand(seed ^ 0xAF7E12), n: int64(res.Recovered)}
	for i := 0; i < 5; i++ {
		if err := st2.one(false); err != nil {
			return res, fmt.Errorf("tpc: post-restart txn %d: %w", i, err)
		}
	}
	db2.Settle()
	if err := db2.Close(); err != nil {
		return res, fmt.Errorf("tpc: close: %w", err)
	}
	return res, nil
}

// corruptTail applies one corrupt-tail mode, already validated, to the
// bytes of a WAL segment strictly past its synced offset — the durable
// prefix is what an fsync promised and stays untouched, exactly as on a
// real disk.
func corruptTail(r *rand.Rand, mode string, tail repro.WALTail) error {
	info, err := os.Stat(tail.Path)
	if err != nil {
		return err
	}
	if info.Size() <= tail.Synced {
		return nil // nothing unsynced to corrupt
	}
	if mode == TailMixed {
		mode = [...]string{TailIntact, TailTorn, TailBitFlip, TailZeroed}[r.IntN(4)]
	}
	if mode == TailIntact {
		return nil
	}
	buf, err := os.ReadFile(tail.Path)
	if err != nil {
		return err
	}
	unsynced := buf[tail.Synced:]
	switch mode {
	case TailTorn:
		buf = buf[:tail.Synced+int64(r.IntN(len(unsynced)+1))]
	case TailBitFlip:
		for i := 0; i < 3; i++ {
			unsynced[r.IntN(len(unsynced))] ^= 1 << r.IntN(8)
		}
	case TailZeroed:
		from := r.IntN(len(unsynced))
		to := from + 1 + r.IntN(len(unsynced)-from)
		for i := from; i < to; i++ {
			unsynced[i] = 0
		}
	}
	return os.WriteFile(tail.Path, buf, 0o644)
}
