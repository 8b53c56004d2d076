package tpc

import (
	"time"

	"repro"
)

// RunAvailability drives the paper's availability experiment end to end:
// throughput delivered while a replica fails and recovers. The timeline is
// measured in fixed simulated-time windows — healthy windows first, then
// the primary is crashed, the cluster fails over, an online repair
// (RepairAsync) starts, and windows keep being measured while the chunked
// state transfer shares the SAN with the live commit stream; once the
// repair cuts over, a few restored windows close the run. The windowed
// transactions-per-second curve, the repair duration and bytes shipped,
// and the time back to full redundancy are the availability metrics
// production replica managers track.
//
// The cluster must tolerate serving with a degraded replica set between
// the failover and the repair cut-over — 1-safe always does; quorum and
// 2-safe refuse commits until enough replicas are back, which the result
// reports as zero-throughput windows rather than an error.

// The availability run's fixed shape: the simulated duration of one
// throughput window, the windows measured before the crash and after the
// repair cuts over, and the cap on the windows spent waiting for the
// repair (the run errors out if the repair has not completed by then).
const (
	availWindow          = 10 * time.Millisecond
	availHealthyWindows  = 3
	availRestoredWindows = 3
	maxRepairWindows     = 200
)

// AvailabilityResult is the measured timeline.
type AvailabilityResult struct {
	// Windows is the throughput timeline; Phase is "healthy", "repair"
	// (between the crash and the repair cut-over) or "restored".
	Windows []Window
	// BaseTPS is the mean healthy-window throughput; MinTPS the worst
	// window after the crash (the availability dip); RestoredTPS the
	// mean restored-window throughput.
	BaseTPS, MinTPS, RestoredTPS float64
	// CrashAt is the cumulative simulated instant of the primary crash.
	CrashAt time.Duration
	// RepairDur is the simulated time the online repair ran and
	// RepairBytes its state-transfer payload.
	RepairDur   time.Duration
	RepairBytes int64
	// RestoredAt is the cumulative instant the cluster was back at full
	// redundancy (repair cut-over); RestoredAt - CrashAt is the
	// time-to-restored-quorum.
	RestoredAt time.Duration
}

// RunAvailability populates the workload, runs warmup transactions (cache
// and SAN state carry over; counters reset), and measures the crash →
// failover → repair → restored timeline on the deployment, drawing the
// workload from seed. crash fails the serving node: c.CrashPrimary keeps
// its memory for a warm re-join, a power failure loses it and the repair
// re-seeds a spare. On a multi-shard deployment the crash and repair land
// on shard 0.
func RunAvailability(c *repro.Cluster, crash func() error, w Workload, warmup int64, seed uint64) (AvailabilityResult, error) {
	if err := w.Populate(c.Load); err != nil {
		return AvailabilityResult{}, err
	}
	st := &stream{begin: c.Begin, w: w, r: NewRand(seed)}
	tl, err := startTimeline(c, func() error { return st.one(false) }, availWindow, warmup)
	if err != nil {
		return AvailabilityResult{}, err
	}
	var res AvailabilityResult
	if err := tl.measureN("healthy", availHealthyWindows); err != nil {
		return res, err
	}

	// Crash, fail over, and start healing online.
	if err := crash(); err != nil {
		return res, err
	}
	res.CrashAt = tl.cum
	if err := c.Failover(); err != nil {
		return res, err
	}
	tl.last = c.Elapsed() // the serving clock moved machines
	if err := c.RepairAsync(); err != nil {
		return res, err
	}
	// A safety level that refuses degraded service shows up as empty
	// repair windows, not a failed run.
	if err := tl.measureWhile("repair", maxRepairWindows, func() bool { return c.RepairProgress().Active }); err != nil {
		return res, err
	}
	p := c.RepairProgress()
	res.RepairDur = p.Elapsed
	res.RepairBytes = p.BytesShipped
	res.RestoredAt = res.CrashAt + p.Elapsed

	if err := tl.measureN("restored", availRestoredWindows); err != nil {
		return res, err
	}
	res.Windows = tl.windows
	_, res.BaseTPS, _ = PhaseStats(res.Windows, "healthy")
	_, _, res.MinTPS = PhaseStats(res.Windows, "repair")
	_, res.RestoredTPS, _ = PhaseStats(res.Windows, "restored")
	return res, nil
}
