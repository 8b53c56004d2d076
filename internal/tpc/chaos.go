package tpc

import (
	"errors"
	"fmt"
	"time"

	"repro"
)

// RunChaos extends RunAvailability into an unattended chaos experiment: a
// seeded schedule of fault injections — crash the primary, crash a backup,
// crash the primary in the middle of a repair — lands on a cluster whose
// autopilot must notice and respond on its own. The driver never calls
// Failover, Repair or RepairAsync; it only keeps the workload running (and
// sits out windows a strict safety level refuses to serve). What comes back
// is the availability record production replica managers track: the
// windowed throughput curve across every incident, and per-event detection
// latency (MTTD), failover latency, repair duration and time-to-restored
// (MTTR) aggregated over the run.

// Chaos fault kinds, as scheduled by the seeded generator.
const (
	FaultCrashPrimary      = "crash-primary"
	FaultCrashBackup       = "crash-backup"
	FaultCrashDuringRepair = "crash-during-repair"
)

// The chaos run's fixed shape: windows measured after the last event
// settles, the cap on the whole run (exceeding it is an error, the cluster
// never settled), and the bound on the seeded number of windows between
// injections (the minimum gap is 1).
const (
	chaosTailWindows = 2
	chaosMaxWindows  = 600
	chaosMaxGap      = 4
)

// ChaosOptions tunes a RunChaos schedule.
type ChaosOptions struct {
	// Window is the simulated duration of one throughput window
	// (default 5 ms).
	Window time.Duration
	// Events is the number of fault injections (default 4).
	Events int
	// HealthyWindows measures the pre-fault baseline (default 2).
	HealthyWindows int
	// Warmup transactions run before the first window.
	Warmup int64
	// Seed feeds both the workload and the fault schedule, making the
	// whole run reproducible.
	Seed uint64
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Window <= 0 {
		o.Window = 5 * time.Millisecond
	}
	if o.Events <= 0 {
		o.Events = 4
	}
	if o.HealthyWindows <= 0 {
		o.HealthyWindows = 2
	}
	return o
}

// InjectedFault records one scheduled injection.
type InjectedFault struct {
	// Kind is one of the Fault* constants.
	Kind string
	// At is the cumulative simulated instant of the injection.
	At time.Duration
	// Backup is the crashed backup's index (backup faults only).
	Backup int
}

// ChaosResult is the measured record of an unattended chaos run.
type ChaosResult struct {
	// Windows is the throughput timeline; Phase is "healthy", "chaos" or
	// "tail".
	Windows []Window
	// Injected lists the fault schedule actually executed.
	Injected []InjectedFault
	// Events is the autopilot's per-fault timeline (detection, failover,
	// repair, restoration), in detection order.
	Events []repro.FailureEvent
	// BaseTPS is the mean healthy-window throughput; MinTPS the worst
	// window after the first fault.
	BaseTPS, MinTPS float64
	// MeanMTTD/MaxMTTD aggregate detection latency over all events;
	// MeanMTTR/MaxMTTR aggregate fault-to-restored over the events whose
	// repair completed (Restored counts them).
	MeanMTTD, MaxMTTD time.Duration
	MeanMTTR, MaxMTTR time.Duration
	Restored          int
	// Committed is the cluster's committed-transaction count at the end.
	Committed uint64
}

// RunChaos populates the workload, warms up, and runs the seeded fault
// schedule against the deployment's autopilot. Written against the DB
// abstraction: any FaultDB with Config.Autopilot enabled (AutoFailover,
// AutoRepair, and enough Spares for the schedule) can sit under it; the
// injections land on shard 0.
func RunChaos(c FaultDB, w Workload, opts ChaosOptions) (ChaosResult, error) {
	opts = opts.withDefaults()
	if !c.AutopilotEnabled() {
		return ChaosResult{}, errors.New("tpc: chaos needs Config.Autopilot enabled")
	}
	if err := w.Populate(c.Load); err != nil {
		return ChaosResult{}, err
	}
	faults := NewRand(opts.Seed ^ 0xC3A05)
	st := &stream{db: c, w: w, r: NewRand(opts.Seed)}
	// The autopilot keeps Elapsed continuous across unattended takeovers,
	// so the cumulative timeline needs no stitching here.
	tl, err := startTimeline(c, st.one, opts.Window, opts.Warmup)
	if err != nil {
		return ChaosResult{}, err
	}
	var res ChaosResult
	if err := tl.measureN("healthy", opts.HealthyWindows); err != nil {
		return res, err
	}

	// The seeded schedule: Events injections separated by 1..chaosMaxGap
	// chaos windows, a primary crash pending while a repair is in flight
	// for the crash-during-repair kind.
	injected := 0
	gap := 1 + faults.IntN(chaosMaxGap)
	pendingMidRepair := false
	pendingSince := 0
	for wi := 0; ; wi++ {
		if len(tl.windows) >= chaosMaxWindows {
			return res, fmt.Errorf("tpc: chaos did not settle within %d windows", chaosMaxWindows)
		}
		acted := false
		if pendingMidRepair {
			switch {
			case c.RepairProgress().Active:
				// The repair the previous backup crash triggered is
				// running: kill the transfer source mid-flight.
				if err := c.CrashPrimary(); err == nil {
					res.Injected = append(res.Injected, InjectedFault{Kind: FaultCrashDuringRepair, At: tl.cum})
				}
				pendingMidRepair = false
				acted = true
			case wi-pendingSince >= 2:
				// The repair came and went inside a window (or never
				// started): nothing left to hit mid-flight. Drop the
				// pending half so the run can settle.
				pendingMidRepair = false
			}
		}
		if !acted && !pendingMidRepair && injected < opts.Events && wi >= gap {
			kind := faults.IntN(3)
			switch {
			case kind == FaultKindPrimary || c.Backups() == 0:
				if err := c.CrashPrimary(); err == nil {
					res.Injected = append(res.Injected, InjectedFault{Kind: FaultCrashPrimary, At: tl.cum})
				}
			default:
				i := faults.IntN(c.Backups())
				if err := c.CrashBackup(i); err == nil {
					f := InjectedFault{Kind: FaultCrashBackup, At: tl.cum, Backup: i}
					if kind == FaultKindDuringRepair {
						f.Kind = FaultCrashDuringRepair
						pendingMidRepair = true
						pendingSince = wi
					}
					res.Injected = append(res.Injected, f)
				}
			}
			injected++
			gap = wi + 1 + faults.IntN(chaosMaxGap)
		}
		if err := tl.measure("chaos", true); err != nil {
			return res, err
		}
		if injected >= opts.Events && !pendingMidRepair && !c.RepairProgress().Active {
			// All faults landed and the last repair cut over; let any
			// trailing detection work (a dead backup not yet declared)
			// surface before closing.
			c.Settle()
			if !c.RepairProgress().Active {
				break
			}
		}
	}

	for i := 0; i < chaosTailWindows; i++ {
		if err := tl.measure("tail", true); err != nil {
			return res, err
		}
	}

	res.Windows = tl.windows
	res.Events = c.AutopilotEvents()
	res.Committed = c.Committed()
	aggregate(&res)
	return res, nil
}

// Seeded fault kinds (indices into the generator's 0..2 draw).
const (
	FaultKindPrimary = iota
	FaultKindBackup
	FaultKindDuringRepair
)

// aggregate computes the run's throughput and latency summaries.
func aggregate(res *ChaosResult) {
	_, res.BaseTPS, _ = PhaseStats(res.Windows, "healthy")
	_, _, res.MinTPS = PhaseStats(res.Windows, "chaos", "tail")
	var mttdSum, mttrSum time.Duration
	for _, e := range res.Events {
		d := e.MTTD()
		mttdSum += d
		if d > res.MaxMTTD {
			res.MaxMTTD = d
		}
		if r := e.MTTR(); r > 0 {
			mttrSum += r
			res.Restored++
			if r > res.MaxMTTR {
				res.MaxMTTR = r
			}
		}
	}
	if n := len(res.Events); n > 0 {
		res.MeanMTTD = mttdSum / time.Duration(n)
	}
	if res.Restored > 0 {
		res.MeanMTTR = mttrSum / time.Duration(res.Restored)
	}
}
