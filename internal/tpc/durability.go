package tpc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"

	"repro"
)

// The disk tier's fault is a cold restart: a full power loss at a seeded
// kill point — every machine of the replica group at once, backups
// included — the unsynced tail of each replica's WAL optionally torn,
// bit-flipped or zero-filled, and the power back on over the same
// durability directory, which must come back with every acked-durable
// transaction and an image that exactly matches the replay oracle at
// whatever count it recovered.

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

// durabilityTxns bounds the kill point: a drill warms up to a seeded
// number of committed transactions in [durabilityTxns/2, durabilityTxns]
// before the power fails. The bound is fixed because recovery cost is a
// function of the snapshot interval and the tail, not of how long the run
// was.
const durabilityTxns = 240

// ColdRestart returns the "restart" step of run's deployment and the
// seeded kill point a drill warms up to before it. The step cuts the
// power (PowerFail), leaves the unsynced WAL tails to the corrupt
// treatment (one of the Tail* constants), powers the deployment back on
// from its Durability.Dir (PowerOn) and rewinds run to the transactions
// it recovered; it fails when their number lies outside [the durable
// prefix, the committed count] at the power loss. It measures no window.
// Seed feeds the kill point and the corruption draws. The deployment must
// be one replica group with the disk tier on: the replay oracle's "state
// after K commits" has no meaning across independently-failing shards.
func ColdRestart(run *Runner, corrupt string, seed uint64) (Step, int64, error) {
	switch corrupt {
	case TailIntact, TailTorn, TailBitFlip, TailZeroed, TailMixed:
	default:
		return Step{}, 0, fmt.Errorf("tpc: unknown corrupt-tail mode %q", corrupt)
	}
	if run.c.Shards() != 1 {
		return Step{}, 0, errors.New("tpc: cold restart needs a single replica group")
	}
	if !run.c.Durability().Enabled {
		return Step{}, 0, errors.New("tpc: cold restart needs Config.Durability")
	}
	draws := NewRand(seed ^ 0xD15C)
	kill := int64(durabilityTxns/2 + draws.IntN(durabilityTxns/2+1))
	restart := func(c *repro.Cluster) error {
		committed, durable := c.Committed(), c.Durability().DurableSeq
		if err := c.PowerFail(); err != nil {
			return err
		}
		for _, tail := range c.WALTails() {
			if err := corruptTail(draws, corrupt, tail); err != nil {
				return fmt.Errorf("corrupt %s: %w", tail.Path, err)
			}
		}
		if err := c.PowerOn(); err != nil {
			return err
		}
		recovered := c.Committed()
		if recovered < durable || recovered > committed {
			return fmt.Errorf("recovered %d commits outside [%d acked durable, %d committed]", recovered, durable, committed)
		}
		return run.rewind(int64(recovered))
	}
	return Step{Phase: "restart", Act: restart}, kill, nil
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
