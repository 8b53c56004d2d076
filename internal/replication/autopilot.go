// Autopilot: the unattended failure-detection and response loop layered on
// the replica group. With it enabled the cluster notices its own faults and
// drives the PR 1–3 machinery (Failover, RepairAsync) without an operator:
//
//   - Heartbeats. A period that carried a commit every reachable replica
//     acknowledged implies its heartbeat round, and nothing ships.
//     Otherwise the primary broadcasts a beat over the Memory Channel and
//     every reachable replica acknowledges it; the bytes occupy the SAN
//     under mem.CatControl, next to redo and sync traffic, but bypass the
//     coalescing write buffers — control traffic never enters a
//     group-commit batch and never extends the Settle quiesce.
//   - Detection. A detect.Detector moves silent peers through Alive →
//     Suspect → Dead on the configured period/timeout. The simulation pumps
//     the detector at commit grain (every commit, Begin, and Settle), and
//     transitions are stamped with the threshold-crossing instant, so
//     detection latency is bounded by five heartbeat periods (Suspect
//     after four silent ones, Dead one beat later) regardless of pump
//     cadence.
//   - Lease-guarded failover. On primary death the most-caught-up survivor
//     is promoted — but no earlier than the old primary's dead-declaration
//     instant, which is also exactly when the old primary's lease (renewed
//     at each heartbeat round, exchanged or implied, duration five
//     heartbeat periods)
//     runs out. A deposed primary that is merely partitioned therefore
//     fences itself — Begin refuses with ErrLeaseExpired — before the new
//     primary can have accepted its first commit: no split-brain.
//   - Epoch fencing. Every membership change (failover, enrollment) bumps
//     the group epoch and re-stamps the surviving members; commit
//     acknowledgements are only counted from replicas carrying the current
//     epoch, so a replica that missed a membership change can never vouch
//     for data.
//   - Self-healing. On a node's death the group re-joins it from its own
//     memory through the online-repair engine, and replaces a node whose
//     memory is gone from a bounded spare pool; the timeline of every fault
//     (failed/detected/failed-over/repair-started/restored) is recorded as a
//     FailureEvent for the MTTD/MTTR metrics the chaos harness reports.
package replication

import (
	"errors"
	"slices"

	"repro/internal/detect"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// AutopilotConfig switches on and times the unattended failure loop. The
// zero value disables it entirely (no control traffic, no detector — the
// group behaves bit-for-bit as without the subsystem).
type AutopilotConfig struct {
	// HeartbeatPeriod is the interval between heartbeat rounds; a positive
	// value enables the autopilot. A peer silent for four periods is
	// Suspect, and one further missed beat confirms it Dead.
	HeartbeatPeriod sim.Dur
	// AutoFailover promotes the most-caught-up survivor automatically when
	// the primary is declared dead.
	AutoFailover bool
	// AutoRepair re-enrolls replacements (from the spare pool) when a
	// backup is declared dead, and refills the group after a failover.
	AutoRepair bool
	// Spares is the number of fresh spare nodes the autopilot may enroll
	// over the cluster's lifetime; once exhausted the group keeps serving
	// degraded.
	Spares int
}

// Enabled reports whether the configuration switches the autopilot on.
func (a AutopilotConfig) Enabled() bool { return a.HeartbeatPeriod > 0 }

// FailureEvent is the recorded timeline of one fault the autopilot handled.
// Zero-valued stamps mean "has not happened": a backup event has no
// FailedOverAt; an event whose repair never completed has no RestoredAt.
type FailureEvent struct {
	// Kind is "primary" or "backup".
	Kind string
	// Node names the failed machine.
	Node string
	// FailedAt is the ground-truth fault instant (stamped at injection).
	FailedAt sim.Time
	// DetectedAt is the instant the detector declared the node dead;
	// DetectedAt - FailedAt is the event's MTTD.
	DetectedAt sim.Time
	// FailedOverAt is the instant the promoted survivor was serving
	// (primary events only).
	FailedOverAt sim.Time
	// RepairStartedAt is the instant the self-healing re-enrollment began.
	RepairStartedAt sim.Time
	// RestoredAt is the instant the group was back at full redundancy;
	// RestoredAt - FailedAt is the event's MTTR.
	RestoredAt sim.Time
	// RepairBytes is the state-transfer payload the group shipped while the
	// event was open.
	RepairBytes int64
}

// beatBytes is the payload of one heartbeat (and of one acknowledgement):
// sequence, epoch, and sender id.
const beatBytes = 24

// maxBeatRounds caps the control packets charged by a single pump, so one
// enormous idle gap cannot stall the simulation emitting millions of
// retroactive beats. The beat grid itself always advances fully.
const maxBeatRounds = 4096

// autopilot is the per-group state of the failure loop.
type autopilot struct {
	cfg AutopilotConfig
	det *detect.Detector
	// lastBeat is the most recent heartbeat-grid instant processed.
	lastBeat sim.Time
	// implied marks the rounds ahead whose period carried an
	// acknowledgement from every backup they would hear: bit i stands for
	// the round at lastBeat + (i+1) periods.
	implied uint64
	// lease is the serving primary's right to accept commits.
	lease *detect.Lease
	// partitioned marks a primary severed from the SAN: it stops
	// exchanging heartbeat rounds (so its lease runs out) while remaining
	// locally alive — the deposed-primary scenario.
	partitioned bool
	// crashedAt is the ground-truth instant of the current primary fault.
	crashedAt sim.Time
	// spares is the remaining spare-node budget.
	spares int
	// faults maps backup node names to their ground-truth fault instants,
	// consumed when the detector declares them dead.
	faults map[string]sim.Time
	// events is the completed-and-open fault timeline; open indexes the
	// events still awaiting their RestoredAt stamp.
	events []FailureEvent
	open   []int
}

func newAutopilot(cfg AutopilotConfig) *autopilot {
	return &autopilot{
		cfg:    cfg,
		spares: cfg.Spares,
		faults: make(map[string]sim.Time),
	}
}

// rewatch rebuilds the detector over the group's current membership and
// restarts the heartbeat grid at now. A crashed member is not watched: it
// re-joins at the next repair, which watches it again.
func (a *autopilot) rewatch(g *Group, now sim.Time) {
	a.det = detect.New(detect.Config{HeartbeatPeriod: a.cfg.HeartbeatPeriod})
	a.det.Watch(g.primary.Name, now)
	for _, b := range g.backups {
		if b.alive() {
			a.det.Watch(b.node.Name, now)
		}
	}
	a.lastBeat = now
	a.implied = 0
}

// noteFault records a backup's ground-truth fault instant.
func (a *autopilot) noteFault(node string, at sim.Time) {
	if _, ok := a.faults[node]; !ok {
		a.faults[node] = at
	}
}

// noteDetected opens a backup fault event at its detection instant.
func (a *autopilot) noteDetected(node string, at sim.Time) {
	ev := FailureEvent{Kind: "backup", Node: node, DetectedAt: at}
	if f, ok := a.faults[node]; ok {
		ev.FailedAt = f
		delete(a.faults, node)
	} else {
		ev.FailedAt = at
	}
	a.events = append(a.events, ev)
	a.open = append(a.open, len(a.events)-1)
}

// closeOpen stamps every open event restored at now.
func (a *autopilot) closeOpen(now sim.Time) {
	for _, i := range a.open {
		a.events[i].RestoredAt = now
	}
	a.open = a.open[:0]
}

// markRepairStarted stamps the open events whose repair just began.
func (a *autopilot) markRepairStarted(now sim.Time) {
	for _, i := range a.open {
		if a.events[i].RepairStartedAt == 0 {
			a.events[i].RepairStartedAt = now
		}
	}
}

// AutopilotStatus is the introspection snapshot of the failure loop.
type AutopilotStatus struct {
	// Enabled reports whether the autopilot is on.
	Enabled bool
	// Epoch is the current membership epoch (bumped at every failover and
	// enrollment; acknowledgements from older epochs are fenced).
	Epoch int
	// Spares is the remaining spare-node budget.
	Spares int
	// Partitioned reports a primary severed from the SAN.
	Partitioned bool
	// LeaseExpiry is the instant the serving primary's lease runs out
	// absent renewal.
	LeaseExpiry sim.Time
	// Peers maps every watched node to its detector state.
	Peers map[string]detect.State
}

// Autopilot returns the failure loop's current status (zero Enabled when
// the subsystem is off).
func (g *Group) Autopilot() AutopilotStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.autop
	if a == nil {
		return AutopilotStatus{}
	}
	st := AutopilotStatus{
		Enabled:     true,
		Epoch:       g.epoch,
		Spares:      a.spares,
		Partitioned: a.partitioned,
		LeaseExpiry: a.lease.Expiry(),
		Peers:       make(map[string]detect.State),
	}
	for _, p := range a.det.Peers() {
		st.Peers[p] = a.det.State(p)
	}
	return st
}

// AutopilotEvents returns the fault timeline recorded so far (a copy).
func (g *Group) AutopilotEvents() []FailureEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.autop == nil {
		return nil
	}
	return append([]FailureEvent(nil), g.autop.events...)
}

// Epoch returns the current membership epoch.
func (g *Group) Epoch() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// bumpEpochLocked advances the membership epoch and re-stamps the fully
// enrolled members. Replicas that missed the change (paused, gated,
// crashed, mid-join) keep their old epoch, which fences any acknowledgement
// they might still produce; a joiner acquires the current epoch at its
// cut-over.
func (g *Group) bumpEpochLocked() {
	g.epoch++
	for _, b := range g.backups {
		if b.state == StateInSync {
			b.epoch = g.epoch
		}
	}
	g.emit(obs.EventEpochBump, -1, uint64(g.epoch), 0)
}

// ackEligibleLocked reports whether backup b's acknowledgements count
// toward the current era's commits: it must be fully enrolled and carry the
// current membership epoch — an ack stamped with an older epoch comes from
// a replica that missed a membership change and is fenced.
func (g *Group) ackEligibleLocked(b *backup) bool {
	return b.acking() && b.epoch == g.epoch
}

// noteAcksLocked takes a flush's acknowledgement instants as heartbeat
// evidence: when every backup the next round would hear acknowledged, the
// round whose period (T − HeartbeatPeriod, T] holds the last of them is
// implied. The flush's ack set is the ack-eligible backups, so a joiner,
// a gated or a stale-epoch member in the round keeps it exchanged.
func (g *Group) noteAcksLocked(acks []sim.Time) {
	a := g.autop
	if a == nil {
		return
	}
	heard := 0
	for _, b := range g.backups {
		if b.heard() {
			heard++
		}
	}
	if last := slices.Max(acks); len(acks) == heard && last > a.lastBeat {
		a.implied |= 1 << ((last - a.lastBeat - 1) / sim.Time(a.cfg.HeartbeatPeriod))
	}
}

// autopilotPumpLocked advances the failure loop to the primary's current
// simulated time: heartbeat rounds due since the last pump are exchanged
// (and charged to the SAN under mem.CatControl) unless a commit's
// acknowledgements implied them, the lease is renewed, the
// detector is evaluated, and dead backups trigger self-healing repair.
// Called at commit grain — every commit, Begin, and Settle — exactly like
// the repair copier's pump. Primary-death handling lives in Begin (the
// admission point), never here: a depose/promote must not land in the
// middle of a commit.
func (g *Group) autopilotPumpLocked() {
	a := g.autop
	if a == nil || g.crashed {
		return
	}
	now := g.primary.Clock.Now()
	hp := sim.Time(a.cfg.HeartbeatPeriod)
	if rounds := int64((now - a.lastBeat) / hp); rounds > 0 {
		first := a.lastBeat + hp
		a.lastBeat += sim.Time(rounds) * hp
		emit := rounds
		if emit > maxBeatRounds {
			emit = maxBeatRounds
			first = a.lastBeat - sim.Time(emit-1)*hp
		}
		// The emitted rounds are the span's last; a shift past 63 clears.
		implied := a.implied >> (rounds - emit)
		a.implied >>= rounds
		if !a.partitioned && g.primary.MC != nil {
			// One broadcast beat per exchanged round occupies the forward
			// link; the per-replica acknowledgements cross the reverse
			// direction and are accounted without occupying it. An implied
			// round ships nothing but is heard all the same.
			exchanged := 0
			for i := int64(0); i < emit; i++ {
				if implied>>i&1 == 0 {
					g.primary.MC.EmitBulk(first+sim.Time(i)*hp, beatBytes, mem.CatControl)
					exchanged++
				}
			}
			a.det.Heartbeat(g.primary.Name, a.lastBeat)
			for _, b := range g.backups {
				if b.heard() {
					g.primary.MC.AccountControl(exchanged * beatBytes)
					a.det.Heartbeat(b.node.Name, a.lastBeat)
				}
			}
			a.lease.Renew(a.lastBeat)
			if g.obs != nil {
				g.obs.beatsExchanged.Add(uint64(exchanged))
				g.obs.beatsImplied.Add(uint64(emit) - uint64(exchanged))
			}
		}
	}
	for _, tr := range a.det.Tick(now) {
		if g.obs != nil && (tr.To == detect.Suspect || tr.To == detect.Dead) {
			kind := obs.EventDetectSuspect
			if tr.To == detect.Dead {
				kind = obs.EventDetectDead
			}
			g.obs.reg.Emit(kind, int64(tr.At), g.nodeIndexLocked(tr.Peer), uint64(g.epoch), 0)
		}
		if tr.To != detect.Dead || tr.Peer == g.primary.Name {
			continue
		}
		a.noteDetected(tr.Peer, tr.At)
		if !a.cfg.AutoRepair {
			continue
		}
		if b := g.backupByNameLocked(tr.Peer); b != nil && b.state == StatePaused && !a.partitioned {
			// From the cluster's side a partitioned replica that stayed
			// silent past the dead timeout is indistinguishable from a
			// dead one: expel it — the epoch fence keeps anything it
			// still holds from ever vouching — so the repair below can
			// heal around it instead of leaving the group degraded (and,
			// under 2-safe, refusing every commit). The machine stays out
			// of reach, so a spare replaces it; a later ResumeBackup of
			// it is a no-op: its slot is gone.
			b.node.lost = true
			b.setState(StateCrashed)
		}
		g.autoRepairLocked()
	}
}

// nodeIndexLocked maps a watched peer name to its event-ring node
// index: the backup's slot, or -1 for the primary (and unknown names).
func (g *Group) nodeIndexLocked(name string) int {
	for i, b := range g.backups {
		if b.node.Name == name {
			return i
		}
	}
	return -1
}

// backupByNameLocked finds the backup with the given node name.
func (g *Group) backupByNameLocked(name string) *backup {
	for _, b := range g.backups {
		if b.node.Name == name {
			return b
		}
	}
	return nil
}

// autoRepairLocked starts (or extends) the self-healing re-enrollment and
// stamps the open events' repair timeline. Nothing-to-repair is not an
// error here: a dead backup with no spares left simply leaves the group
// degraded.
func (g *Group) autoRepairLocked() {
	a := g.autop
	err := g.repairAsyncLocked()
	if err != nil && !errors.Is(err, ErrNotRepairable) {
		return
	}
	now := g.primary.Clock.Now()
	if err == nil {
		a.markRepairStarted(now)
	}
	if err == nil && len(g.jobs) == 0 && g.restoredLocked() {
		// Gap-free rejoins restore redundancy on the spot.
		a.closeOpen(now)
	}
}

// autoFailoverLocked performs the unattended takeover of a dead primary:
// the survivors' clocks advance to the detector's dead-declaration instant
// (the monitor waited out the timeout), the most-caught-up survivor is
// promoted through the ordinary failover path, the measured interval is
// kept continuous across the takeover, and — with AutoRepair — the group
// immediately begins healing back to its configured degree.
func (g *Group) autoFailoverLocked() error {
	a := g.autop
	detectAt := a.det.DeadlineFor(g.primary.Name)
	if detectAt < a.crashedAt {
		detectAt = a.crashedAt
	}
	// The crashed primary never crosses det.Tick (admission notices the
	// corpse first), so record the detector's verdict here: the trace
	// reads detect.dead → failover for unattended takeovers too.
	if g.obs != nil {
		g.obs.reg.Emit(obs.EventDetectDead, int64(detectAt), -1, uint64(g.epoch), 0)
	}
	ev := FailureEvent{
		Kind:       "primary",
		Node:       g.primary.Name,
		FailedAt:   a.crashedAt,
		DetectedAt: detectAt,
	}
	for _, b := range g.backups {
		if b.alive() {
			b.node.Clock.AdvanceTo(detectAt)
		}
	}
	old, interval := g.servingRef.Load(), g.interval
	if _, err := g.failoverLocked(); err != nil {
		return err
	}
	ev.FailedOverAt = g.primary.Clock.Now()
	// The promoted clock was advanced onto the old era's timeline, so the
	// measured interval can continue across the takeover, its read servers
	// with it: the detection wait and the recovery cost stay visible in
	// Elapsed instead of being reset away (manual Failover keeps its
	// historical reset behavior).
	if now := g.primary.Clock.Now(); now > old.origin {
		g.interval = interval
		next := *g.servingRef.Load()
		next.origin, next.readers = old.origin, old.readers
		g.servingRef.Store(&next)
	}
	a.events = append(a.events, ev)
	a.open = append(a.open, len(a.events)-1)
	if a.cfg.AutoRepair {
		g.autoRepairLocked()
	}
	return nil
}

// PartitionPrimary severs the serving primary from the SAN: every reachable
// backup is partitioned away from it (as in PauseBackup), heartbeat rounds
// stop, and the primary's lease stops renewing. The primary itself keeps
// running — which is exactly the split-brain hazard the lease exists for:
// once the lease runs out, Begin on the deposed primary refuses with
// ErrLeaseExpired, and with AutoFailover enabled the surviving majority
// promotes a replacement no earlier than that same instant.
func (g *Group) PartitionPrimary() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crashed {
		return ErrCrashed
	}
	if g.cfg.Mode == Standalone || len(g.backups) == 0 {
		return ErrNoBackup
	}
	// Exchange the rounds due before the cut, then stamp the fault.
	g.autopilotPumpLocked()
	if a := g.autop; a != nil {
		a.partitioned = true
		a.crashedAt = g.primary.Clock.Now()
	}
	for _, b := range g.backups {
		g.pauseBackupLocked(b)
	}
	return nil
}

// crashPrimaryLocked is the shared death of the serving node: Crash uses it
// for a real fault, the autopilot to depose a partitioned primary.
func (g *Group) crashPrimaryLocked() {
	g.durLeaveLocked(g.primary, false)
	g.crashed = true
	if g.deferDepth > 0 && g.batchCount > 0 {
		// The open scopes' unsealed commits die here; their Seal says so.
		g.deferLost = true
	}
	g.batchCount = 0
	g.batchStart = 0
	// The open transaction (if any) died with the node: free the slot so
	// post-failover Begins are not blocked by a ghost. The recycled handle
	// goes too: it points into the dead node's store and would keep that
	// node's memory alive until the next Begin.
	g.curHandle = nil
	g.freeTx = nil
	g.txFree.Broadcast()
	g.store.MarkCrashed()
	if g.primary.MC != nil {
		g.primary.MC.Crash()
	}
}

// admitLocked is Begin's autopilot gate: it pumps the failure loop and,
// when the primary is dead (crashed) or deposed (partitioned past its
// dead-declaration), performs the unattended takeover so the caller's
// transaction opens on the promoted survivor. On a deposed primary whose
// lease has run out — and with no AutoFailover to resolve it — admission is
// refused with ErrLeaseExpired: the fencing half of the no-split-brain
// guarantee.
func (g *Group) admitLocked() error {
	a := g.autop
	if a == nil {
		return nil
	}
	if g.crashed {
		if !a.cfg.AutoFailover {
			return ErrCrashed
		}
		return g.autoFailoverLocked()
	}
	g.autopilotPumpLocked()
	if !a.partitioned {
		return nil
	}
	if a.cfg.AutoFailover && a.det.State(g.primary.Name) == detect.Dead {
		g.crashPrimaryLocked()
		if g.deferLost {
			// The deposed primary held a deferral scope's unsealed commits:
			// as in Begin, the takeover waits for the scope's Seal.
			return ErrCrashed
		}
		return g.autoFailoverLocked()
	}
	if !a.lease.Valid(g.primary.Clock.Now()) {
		g.emit(obs.EventLeaseExpired, -1, uint64(g.epoch), 0)
		return ErrLeaseExpired
	}
	return nil
}
