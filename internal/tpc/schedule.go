package tpc

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro"
)

// The schedules a drill runs: crash and repair, growth, and seeded chaos.

// Caps on the degraded windows a step may spend waiting for its
// deployment: an online repair to cut over, a growth step's plan to
// drain, a chaos run to settle.
const (
	maxRepairWindows    = 200
	maxRebalanceWindows = 400
	chaosMaxWindows     = 600
)

// Failover returns the action that fails c's serving node of shard 0 with
// crash, fails over and starts an online repair (RepairAsync) that shares
// the SAN with the live commit stream. (*repro.Cluster).CrashPrimary keeps
// the node's memory for a warm re-join; a power failure loses it and the
// repair re-seeds a spare.
func Failover(crash Action) Action {
	return func(c *repro.Cluster) error {
		if err := crash(c); err != nil {
			return err
		}
		if err := c.Failover(); err != nil {
			return err
		}
		return c.RepairAsync()
	}
}

// CrashRepair is the paper's availability fault: a "repair" step that runs
// Failover(crash) and measures until the repair cuts over. A safety level
// that refuses degraded service (quorum, 2-safe) shows up as empty repair
// windows, not a failed drill.
func CrashRepair(crash Action) Step {
	return Step{
		Phase:   "repair",
		Act:     Failover(crash),
		Until:   func(c *repro.Cluster) bool { return !c.RepairProgress().Active },
		Windows: maxRepairWindows,
	}
}

// Grow is the elastic step "grow-<target>": add the shard groups missing
// to target and rebalance onto them asynchronously, measuring while the
// range mover rides the commit stream until its plan drains. A
// Cluster.Shard view refuses with ErrNotElastic.
func Grow(target int) Step {
	return Step{
		Phase: fmt.Sprintf("grow-%d", target),
		Act: func(c *repro.Cluster) error {
			if cur := c.Shards(); target <= cur {
				return fmt.Errorf("tpc: growth target %d not above current %d shards", target, cur)
			}
			if _, err := c.AddShards(target - c.Shards()); err != nil {
				return err
			}
			return c.RebalanceAsync()
		},
		Until:   func(c *repro.Cluster) bool { return !c.RebalanceProgress().Active },
		Windows: maxRebalanceWindows,
	}
}

// Chaos fault kinds, as scheduled by the seeded generator.
const (
	FaultCrashPrimary      = "crash-primary"
	FaultCrashBackup       = "crash-backup"
	FaultCrashDuringRepair = "crash-during-repair"
)

// The chaos schedule's shape: the number of seeded fault injections, and
// the bound on the seeded number of windows between them (the minimum
// gap is 1).
const (
	chaosEvents = 4
	chaosMaxGap = 4
)

// InjectedFault records one chaos injection.
type InjectedFault struct {
	// Kind is one of the Fault* constants.
	Kind string
	// Window is the index, within the chaos step, of the window the
	// injection landed before.
	Window int
	// Backup is the crashed backup's index (backup faults only).
	Backup int
}

// Chaos is the unattended fault schedule: seeded injections — crash the
// primary, crash a backup, crash the primary in the middle of the repair
// a backup crash started — land on shard 0 of a deployment whose
// autopilot must notice and respond on its own. The drill never calls
// Failover, Repair or RepairAsync; the autopilot's FailureEvents carry
// each fault's detection latency (MTTD), failover, repair and
// time-to-restored (MTTR).
type Chaos struct {
	// Injected lists the injections made so far.
	Injected []InjectedFault

	faults *rand.Rand
	// events counts the scheduled faults drawn; gap is the window the next
	// one lands before; pending marks a crash-during-repair whose primary
	// half waits for the repair its backup crash triggers, since window
	// pendingSince.
	events, gap, pendingSince int
	pending                   bool
}

// NewChaos draws a chaos schedule from seed for c, whose Config.Autopilot
// must be enabled (AutoFailover, AutoRepair, and enough Spares).
func NewChaos(c *repro.Cluster, seed uint64) (*Chaos, error) {
	if !c.AutopilotEnabled() {
		return nil, errors.New("tpc: chaos needs Config.Autopilot enabled")
	}
	faults := NewRand(seed ^ 0xC3A05)
	return &Chaos{faults: faults, gap: 1 + faults.IntN(chaosMaxGap)}, nil
}

// Step returns the "chaos" step: the injector runs before each window,
// and the step ends once every fault has landed and the last repair cut
// over.
func (ch *Chaos) Step() Step {
	return Step{Phase: "chaos", Before: ch.inject, Until: ch.settled, Windows: chaosMaxWindows}
}

// inject lands the schedule's next fault if it is due before window wi.
func (ch *Chaos) inject(c *repro.Cluster, wi int) error {
	if ch.pending {
		switch {
		case c.RepairProgress().Active:
			// The repair the backup crash triggered is running: kill the
			// transfer source mid-flight.
			if err := c.CrashPrimary(); err == nil {
				ch.Injected = append(ch.Injected, InjectedFault{Kind: FaultCrashDuringRepair, Window: wi})
			}
			ch.pending = false
			return nil
		case wi-ch.pendingSince >= 2:
			// The repair came and went inside a window (or never
			// started): nothing left to hit mid-flight.
			ch.pending = false
		}
	}
	if ch.pending || ch.events == chaosEvents || wi < ch.gap {
		return nil
	}
	switch kind := ch.faults.IntN(3); {
	case kind == 0 || c.Backups() == 0:
		if err := c.CrashPrimary(); err == nil {
			ch.Injected = append(ch.Injected, InjectedFault{Kind: FaultCrashPrimary, Window: wi})
		}
	default:
		i := ch.faults.IntN(c.Backups())
		if err := c.CrashBackup(i); err == nil {
			f := InjectedFault{Kind: FaultCrashBackup, Window: wi, Backup: i}
			if kind == 2 {
				f.Kind = FaultCrashDuringRepair
				ch.pending, ch.pendingSince = true, wi
			}
			ch.Injected = append(ch.Injected, f)
		}
	}
	ch.events++
	ch.gap = wi + 1 + ch.faults.IntN(chaosMaxGap)
	return nil
}

// settled reports whether every fault landed and the last repair cut
// over, letting trailing detection work (a dead backup not yet declared)
// surface first.
func (ch *Chaos) settled(c *repro.Cluster) bool {
	if ch.events < chaosEvents || ch.pending || c.RepairProgress().Active {
		return false
	}
	c.Settle()
	return !c.RepairProgress().Active
}
