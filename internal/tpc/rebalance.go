package tpc

import (
	"encoding/binary"
	"fmt"
	"time"
)

// RunRebalance drives the elastic-placement experiment end to end:
// throughput delivered while the deployment grows online. The timeline is
// measured in fixed simulated-time windows — baseline windows on the
// initial shard count first, then for each growth step the driver adds
// the new shard groups, starts the rebalance asynchronously, and keeps
// measuring windows while the range mover rides the commit stream
// (a sparse copy paid from the source's repair budget that re-ships
// what is written under it, per-range cut-over barrier); once the plan drains, the next step begins, and a few final
// windows close the run on the full fleet. The windowed throughput
// curve, the ranges and bytes migrated, and the exact acked-write audit
// are the elasticity metrics a resharding production system tracks.
//
// The acked-write audit is the correctness half of the run: a slice of
// version-stamped slots is reserved at the tail of the database (outside
// the workload's layout), the driver interleaves single-slot stamp
// transactions with the benchmark stream, and records the highest
// version each slot acknowledged. After the last window every slot is
// read back raw; a slot whose stored version is below its acknowledged
// version is a lost acked write — the number the result must report as
// zero for the rebalance to be sound.

// auditSlot is the byte size of one audit slot: an 8-byte version
// followed by the version XOR auditMagic (torn stamps are detectable).
const auditSlot = 16

// auditMagic tags the second word of an audit slot.
const auditMagic uint64 = 0xA5D1_57A3_0B5E_55ED

// The rebalance run's fixed shape: the cap on the windows spent waiting
// for one growth step's plan to drain (the run errors out if the mover has
// not finished by then), the version-stamped audit slots reserved at the
// database tail, and one audit stamp transaction every auditEvery workload
// transactions.
const (
	maxRebalanceWindows = 400
	auditSlots          = 64
	auditEvery          = 4
)

// RebalanceOptions tunes a RunRebalance timeline.
type RebalanceOptions struct {
	// Window is the simulated duration of one throughput window
	// (default 10 ms).
	Window time.Duration
	// BaselineWindows measures the pre-growth baseline (default 3).
	BaselineWindows int
	// FinalWindows measures after the last growth step (default 3).
	FinalWindows int
	// TargetShards are the growth steps as absolute shard counts, each
	// larger than the last (default {4, 8} from a 2-shard start). Every
	// step adds the missing groups and rebalances onto them.
	TargetShards []int
	// Warmup transactions run before the first window (cache and SAN
	// state carry over; counters reset).
	Warmup int64
	// Seed feeds the deterministic generator.
	Seed uint64
}

func (o RebalanceOptions) withDefaults() RebalanceOptions {
	if o.Window <= 0 {
		o.Window = 10 * time.Millisecond
	}
	if o.BaselineWindows <= 0 {
		o.BaselineWindows = 3
	}
	if o.FinalWindows <= 0 {
		o.FinalWindows = 3
	}
	if len(o.TargetShards) == 0 {
		o.TargetShards = []int{4, 8}
	}
	return o
}

// RebalanceResult is the measured timeline plus the migration totals and
// the acked-write audit verdict.
type RebalanceResult struct {
	// Windows is the throughput timeline (workload and audit
	// transactions both count); Phase is "baseline", "grow-<target>"
	// (while that step's ranges migrate) or "final".
	Windows []Window
	// BaseTPS is the mean baseline-window throughput; MinTPS the worst
	// window measured while any rebalance was in flight (the elasticity
	// dip); FinalTPS the mean final-window throughput on the full fleet.
	BaseTPS, MinTPS, FinalTPS float64
	// RangesMoved and BytesShipped total the migration work across every
	// growth step.
	RangesMoved  int64
	BytesShipped int64
	// PlacementEpoch is the routing table's version after the last
	// cut-over.
	PlacementEpoch uint64
	// AuditWrites is the number of acknowledged audit stamps;
	// LostAckedWrites counts slots whose read-back version was below the
	// acknowledged one — any non-zero value means an acked transaction
	// vanished during a migration.
	AuditWrites     int64
	LostAckedWrites int64
}

// RunRebalance populates the workload over the database minus the audit
// reserve, warms up, and measures the grow → rebalance → grown timeline
// on the deployment. Any deployment grows; a Cluster.Shard view refuses
// the first AddShards with ErrNotElastic.
func RunRebalance(c FaultDB, mk func(dbSize int) (Workload, error), opts RebalanceOptions) (RebalanceResult, error) {
	opts = opts.withDefaults()
	reserve := auditSlots * auditSlot
	usable := c.DBSize() - reserve
	if usable <= 0 {
		return RebalanceResult{}, fmt.Errorf("tpc: database %d too small for %d audit slots", c.DBSize(), auditSlots)
	}
	w, err := mk(usable)
	if err != nil {
		return RebalanceResult{}, err
	}
	if err := w.Populate(c.Load); err != nil {
		return RebalanceResult{}, err
	}

	var res RebalanceResult
	auditBase := c.DBSize() - reserve
	issued := make([]uint64, auditSlots)
	acked := make([]uint64, auditSlots)
	var auditN int64
	// stamp writes the next version into one audit slot in its own
	// transaction and records the acknowledgement iff Commit returned.
	stamp := func() error {
		slot := int(auditN % auditSlots)
		auditN++
		ver := issued[slot] + 1
		issued[slot] = ver
		var buf [auditSlot]byte
		binary.LittleEndian.PutUint64(buf[0:], ver)
		binary.LittleEndian.PutUint64(buf[8:], ver^auditMagic)
		tx, err := c.Begin()
		if err != nil {
			return err
		}
		off := auditBase + slot*auditSlot
		if err := tx.SetRange(off, auditSlot); err != nil {
			if abortErr := tx.Abort(); abortErr != nil {
				return fmt.Errorf("%w (abort also failed: %v)", err, abortErr)
			}
			return err
		}
		if err := tx.Write(off, buf[:]); err != nil {
			if abortErr := tx.Abort(); abortErr != nil {
				return fmt.Errorf("%w (abort also failed: %v)", err, abortErr)
			}
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		acked[slot] = ver
		res.AuditWrites++
		return nil
	}

	st := &stream{db: c, w: w, r: NewRand(opts.Seed)}
	one := func() error {
		if err := st.one(); err != nil {
			return err
		}
		if st.n%auditEvery == 0 {
			return stamp()
		}
		return nil
	}
	tl, err := startTimeline(c, one, opts.Window, opts.Warmup)
	if err != nil {
		return res, err
	}
	if err := tl.measureN("baseline", opts.BaselineWindows); err != nil {
		return res, err
	}

	var growPhases []string
	for _, target := range opts.TargetShards {
		cur := c.Shards()
		if target <= cur {
			return res, fmt.Errorf("tpc: growth target %d not above current %d shards", target, cur)
		}
		if _, err := c.AddShards(target - cur); err != nil {
			return res, err
		}
		if err := c.RebalanceAsync(); err != nil {
			return res, err
		}
		// A shard briefly below its safety level mid cut-over shows up
		// as a slow window, not a failed run.
		phase := fmt.Sprintf("grow-%d", target)
		growPhases = append(growPhases, phase)
		if err := tl.measureWhile(phase, maxRebalanceWindows, func() bool { return c.RebalanceProgress().Active }); err != nil {
			return res, err
		}
		p := c.RebalanceProgress()
		res.RangesMoved += int64(p.MovesDone)
		res.BytesShipped += p.BytesShipped
	}

	if err := tl.measureN("final", opts.FinalWindows); err != nil {
		return res, err
	}
	c.Settle()

	res.Windows = tl.windows
	_, res.BaseTPS, _ = PhaseStats(res.Windows, "baseline")
	_, _, res.MinTPS = PhaseStats(res.Windows, growPhases...)
	_, res.FinalTPS, _ = PhaseStats(res.Windows, "final")
	res.PlacementEpoch = c.PlacementEpoch()

	// The audit: every slot's stored version must be at least the last
	// acknowledged one (and never past the last issued one).
	var buf [auditSlot]byte
	for slot := 0; slot < auditSlots; slot++ {
		c.ReadRaw(auditBase+slot*auditSlot, buf[:])
		got := binary.LittleEndian.Uint64(buf[0:])
		tag := binary.LittleEndian.Uint64(buf[8:])
		if got != 0 && tag != got^auditMagic {
			res.LostAckedWrites++ // torn stamp: the slot's bytes are not any committed version
			continue
		}
		if got < acked[slot] || got > issued[slot] {
			res.LostAckedWrites++
		}
	}
	return res, nil
}
