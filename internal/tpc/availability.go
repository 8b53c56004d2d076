package tpc

import "time"

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

// AvailabilityOptions tunes a RunAvailability timeline.
type AvailabilityOptions struct {
	// Window is the simulated duration of one throughput window
	// (default 10 ms).
	Window time.Duration
	// HealthyWindows measures the pre-crash baseline (default 3).
	HealthyWindows int
	// RestoredWindows measures after the repair completes (default 3).
	RestoredWindows int
	// MaxRepairWindows caps the windows spent waiting for the repair
	// (default 200); the run errors out if the repair has not completed
	// by then.
	MaxRepairWindows int
	// Warmup transactions run before the first window (cache and SAN
	// state carry over; counters reset).
	Warmup int64
	// Seed feeds the deterministic generator.
	Seed uint64
}

func (o AvailabilityOptions) withDefaults() AvailabilityOptions {
	if o.Window <= 0 {
		o.Window = 10 * time.Millisecond
	}
	if o.HealthyWindows <= 0 {
		o.HealthyWindows = 3
	}
	if o.RestoredWindows <= 0 {
		o.RestoredWindows = 3
	}
	if o.MaxRepairWindows <= 0 {
		o.MaxRepairWindows = 200
	}
	return o
}

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

// RunAvailability populates the workload, warms up, and measures the
// crash → failover → repair → restored timeline on the deployment. It is
// written against the DB abstraction: any FaultDB — a Cluster or a
// ShardedCluster (the crash and repair land on shard 0) — can sit under
// it.
func RunAvailability(c FaultDB, w Workload, opts AvailabilityOptions) (AvailabilityResult, error) {
	opts = opts.withDefaults()
	if err := w.Populate(c.Load); err != nil {
		return AvailabilityResult{}, err
	}
	st := &stream{db: c, w: w, r: NewRand(opts.Seed)}
	tl, err := startTimeline(c, st.one, opts.Window, opts.Warmup)
	if err != nil {
		return AvailabilityResult{}, err
	}
	var res AvailabilityResult
	if err := tl.measureN("healthy", opts.HealthyWindows); err != nil {
		return res, err
	}

	// Crash, fail over, and start healing online.
	if err := c.CrashPrimary(); err != nil {
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
	if err := tl.measureWhile("repair", opts.MaxRepairWindows, func() bool { return c.RepairProgress().Active }); err != nil {
		return res, err
	}
	p := c.RepairProgress()
	res.RepairDur = p.Elapsed
	res.RepairBytes = p.BytesShipped
	res.RestoredAt = res.CrashAt + p.Elapsed

	if err := tl.measureN("restored", opts.RestoredWindows); err != nil {
		return res, err
	}
	res.Windows = tl.windows
	_, res.BaseTPS, _ = PhaseStats(res.Windows, "healthy")
	_, _, res.MinTPS = PhaseStats(res.Windows, "repair")
	_, res.RestoredTPS, _ = PhaseStats(res.Windows, "restored")
	return res, nil
}
