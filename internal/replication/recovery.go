// Online repair: the non-blocking incremental state transfer that enrolls
// (or delta-resyncs) backup replicas while transactions keep committing.
//
// A join runs in three phases (see BackupState):
//
//  1. Syncing — a fuzzy background copy of the primary's recoverable
//     regions crosses the Memory Channel while the joiner is already
//     attached to the live replication stream. Each page is copied
//     atomically at a commit boundary, and every page written after the
//     attach instant is (re)delivered by the live stream, so the copy
//     converges on the primary's current state without ever stopping the
//     world. The copier's bytes occupy the SAN like any other traffic and
//     are accounted under mem.CatSync, but they are charged a few packets
//     at a time as simulated time buys them (see payRepairLocked), and
//     where a commit waits for acknowledgements they travel during the
//     wait, so the commit stream barely notices them.
//  2. CatchingUp — active scheme only: the joiner drains the redo ring
//     from its copy-start sequence until the unapplied lag falls under the
//     cut-over threshold. Redo records are absolute physical writes, so
//     replaying them over the fuzzy copy is idempotent-forward.
//  3. Cut-over — a brief fence delivers the pointer tail, the last records
//     are applied, and the replica flips to InSync: from this instant it
//     counts toward quorum and acknowledges commits.
//
// A node whose memory survived — a resumed partition, a crashed backup, the
// crashed primary after a failover — re-enrolls by delta: the union of the
// pages either side changed since the last commit both held (see
// rejoinPlanLocked), or no transfer at all when that is empty. Only a node
// whose memory is gone is replaced by a fresh one.
//
// A range move out of the group draws on the same copier budget, after the
// joiners (see MoveBudget): the group's link carries one copier's share of
// background bytes, whatever is copying.
package replication

import (
	"errors"
	"math"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vista"
)

// ErrNotRepairable is returned by Repair/RepairAsync when the group has
// nothing to repair: every configured replica is enrolled and in sync.
var ErrNotRepairable = errors.New("replication: nothing to repair")

// Online-repair tuning.
const (
	// defaultRepairChunk bounds the bytes one pump ships, so the copier
	// interleaves with commits at a fine grain (Config.RepairChunk
	// overrides it).
	defaultRepairChunk = 64 << 10
	// repairShare is the fraction of the SAN bandwidth the background
	// copier may consume while transactions run.
	repairShare = 0.5
	// cutoverLag is the unapplied redo-ring span under which a
	// catching-up joiner is close enough for the brief cut-over.
	cutoverLag = 4096
)

// RepairStatus reports the progress of the current (or most recent)
// online repair.
type RepairStatus struct {
	// Active is true while at least one join is in flight.
	Active bool
	// Joining counts the backups still mid-join.
	Joining int
	// Phase is "idle", "syncing" or "catching-up" (the earliest phase of
	// any in-flight join; "idle" when none).
	Phase string
	// BytesShipped is the state-transfer payload shipped so far.
	BytesShipped int64
	// BytesPlanned is the payload the transfer plan covers (delta pages
	// for a resumed replica, whole regions for a fresh one).
	BytesPlanned int64
	// Elapsed is the simulated time the repair has been running (its
	// final value once Active goes false).
	Elapsed sim.Dur
}

// repairRegion is one region's share of a join.
type repairRegion struct {
	src, dst *mem.Region
	pages    []int // still to ship, ascending
}

// plan fixes the pages the join must ship when it opens: those the source
// stamped after its mark-clock reading src or the destination after dst, its
// readings at a state both held. A full transfer (both readings zero) skips
// the pages neither log has ever marked: memory starts zeroed and every
// mutation is marked, so they are zero on both sides. The destination's half
// takes back what it holds and the source never wrote, such as an old
// primary's unpublished commits. A page first written after the join opens
// needs no copy: the live stream delivers it.
func (rr *repairRegion) plan(src, dst uint64) {
	for p := 0; p < rr.src.Dirty.Pages(); p++ {
		if rr.src.Dirty.Stamp(p) > src || rr.dst.Dirty.Stamp(p) > dst {
			rr.pages = append(rr.pages, p)
		}
	}
}

// span returns page p's byte range within the region.
func (rr *repairRegion) span(p int) (off, n int) {
	off = p * rr.src.Dirty.PageSize()
	return off, min(rr.src.Dirty.PageSize(), rr.src.Size()-off)
}

// repairJob is one backup's in-flight join.
type repairJob struct {
	b       *backup
	regions []repairRegion
	planned int64
	shipped int64 // link bytes charged so far
	paid    int64 // of them, toward the page not yet copied
	buf     []byte
}

// chunkBytes returns the per-pump transfer bound.
func (g *Group) chunkBytes() int {
	if g.cfg.RepairChunk > 0 {
		return g.cfg.RepairChunk
	}
	return defaultRepairChunk
}

// repairRate returns the copier's bandwidth in bytes per picosecond:
// repairShare of the SAN's full-packet bandwidth.
func (g *Group) repairRate() float64 {
	pt := g.params.PacketTime(g.params.MaxPacket)
	if pt <= 0 {
		return 0
	}
	return repairShare * float64(g.params.MaxPacket) / float64(pt)
}

// syncRegionsLocked returns the serving node's regions a joiner must hold:
// every write-through (replicated) region of a Passive group, and in every
// era of an Active one the database copy alone (control is seeded from the
// applied sequence at takeover, and the engine's local structures are
// formatted fresh).
func (g *Group) syncRegionsLocked() []*mem.Region {
	if g.redo != nil {
		return []*mem.Region{g.primary.Space.ByName(vista.RegionDB)}
	}
	var out []*mem.Region
	for _, r := range g.primary.Space.Regions() {
		if r.WriteThrough {
			out = append(out, r)
		}
	}
	return out
}

// RepairAsync starts the online repair of every deficiency the group has:
// resumed (Gated) and crashed backups re-join from their own memory, by
// delta, backups whose memory is gone are replaced by fresh nodes, and the
// group is filled back to its configured replication degree. The call
// returns immediately; the transfer advances in the background of the
// commit stream (every commit grants the copier the simulated time that has
// passed) and of Settle's idle periods. Progress is visible through
// RepairStatus; a joiner starts acknowledging at its cut-over.
//
// Returns ErrNotRepairable when every configured replica is enrolled and
// in sync, and ErrCrashed when the primary is down (call Failover first).
func (g *Group) RepairAsync() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.repairAsyncLocked()
}

func (g *Group) repairAsyncLocked() error {
	if g.crashed {
		return ErrCrashed
	}
	if g.autop != nil && g.autop.partitioned {
		// A partitioned primary cannot source a transfer: nothing it ships
		// reaches the far side of the cut.
		return ErrPartitioned
	}
	if g.cfg.Mode == Standalone {
		return ErrNotRepairable
	}
	started := false
	// Drop the backups whose memory is gone — detaching their receive
	// targets so the live mappings neither pin nor iterate dead regions —
	// and re-join resumed and crashed ones from what they hold.
	live := make([]*backup, 0, g.cfg.Backups)
	for _, b := range g.backups {
		if b.node.lost {
			if g.primary.MC != nil {
				g.primary.MC.RemoveTargets(&b.off)
			}
			continue
		}
		live = append(live, b)
		if b.state != StateGated && b.state != StateCrashed {
			continue
		}
		if j, at := g.rejoinPlanLocked(b); at != g.store.Committed() || j.planned > 0 {
			g.startJoinLocked(j)
		} else {
			// The gap is provably empty: rejoin with no transfer at all.
			if g.redo != nil {
				b.appliedTotal, b.appliedTxns = g.redo.prodTotal, at
			}
			b.setState(StateInSync)
			b.fuzzy = false
			_ = g.durJoinLocked(b.node)
		}
		started = true
	}
	g.backups = live
	// Enroll fresh nodes up to the configured degree. A primary that lost
	// every backup has no Memory Channel attachment left; rebuild the SAN
	// wiring before fresh nodes can attach to it.
	wired := g.primary.MC != nil
	var fresh []*backup
	for len(g.backups) < g.cfg.Backups {
		if g.autop != nil && g.autop.spares <= 0 {
			// The spare pool is dry: the group keeps serving degraded
			// until an operator supplies hardware.
			break
		}
		b, err := g.enrollFreshLocked(len(g.backups), wired)
		if err != nil {
			return err
		}
		if g.autop != nil {
			g.autop.spares--
		}
		g.backups = append(g.backups, b)
		fresh = append(fresh, b)
		started = true
	}
	if !wired {
		if err := g.attachLocked(); err != nil {
			return err
		}
	}
	for _, b := range fresh {
		g.startJoinLocked(newRepairJob(b, g.syncRegionsLocked(), 0, 0))
	}
	if started {
		// Membership changed: restore the deterministic per-index ack
		// stagger, exactly as a full rewire would assign it, bump the
		// membership epoch (fencing acks from the old membership), and
		// re-anchor the failure detector's watch set.
		for i, b := range g.backups {
			b.ackLag = ackStagger(g.params, i)
		}
		g.bumpEpochLocked()
		if g.autop != nil {
			g.autop.rewatch(g, g.primary.Clock.Now())
		}
	}
	if !started {
		if len(g.jobs) > 0 {
			return nil // an earlier RepairAsync is still healing the group
		}
		return ErrNotRepairable
	}
	if !g.repair.Active {
		g.repair = RepairStatus{Active: len(g.jobs) > 0}
		g.repairStarted = g.primary.Clock.Now()
	}
	for _, j := range g.jobs {
		g.repair.BytesPlanned += j.planned
		j.planned = 0 // folded into the aggregate exactly once
	}
	g.repair.Joining = len(g.jobs)
	return nil
}

// Repair restores the group to its configured replication degree and
// drives the transfer to completion before returning — the synchronous
// face of RepairAsync, used by demos and orchestration that want "repaired"
// as a postcondition. The transfer still runs through the incremental
// engine (chunk by chunk, releasing the group between chunks, bytes
// accounted), so concurrent transactions keep committing while it runs; a
// transaction open on the group holds the page copies back until it ends.
func (g *Group) Repair() error {
	g.mu.Lock()
	if err := g.repairAsyncLocked(); err != nil {
		g.mu.Unlock()
		return err
	}
	g.mu.Unlock()
	for {
		g.mu.Lock()
		if g.crashed {
			g.mu.Unlock()
			return ErrCrashed
		}
		if len(g.jobs) == 0 {
			// Repaired includes transferred. Enrollment is not part of any
			// measured interval, exactly like the initial Load transfer.
			g.drainLinkLocked()
			g.resetMeasurementLocked()
			g.mu.Unlock()
			return nil
		}
		// Cut-over waits for a closed batch (see advanceJobLocked), and the
		// commits that would seal an open one may never come: seal it here.
		// An acknowledgement the degraded group cannot give is no reason to
		// stop: the repair is what restores it.
		_ = g.flushLocked()
		g.pumpRepairLocked(true)
		g.mu.Unlock()
	}
}

// RepairStatus returns the progress of the current or most recent repair.
func (g *Group) RepairStatus() RepairStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.repair
	if st.Active {
		st.Elapsed = sim.Dur(g.primary.Clock.Now() - g.repairStarted)
		st.Phase = "syncing"
		allCatching := true
		for _, j := range g.jobs {
			if j.b.state != StateCatchingUp {
				allCatching = false
			}
		}
		if allCatching && len(g.jobs) > 0 {
			st.Phase = "catching-up"
		}
	} else {
		st.Phase = "idle"
	}
	return st
}

// rejoinPlanLocked plans the re-join of a backup whose memory survived, in
// either scheme: the pages either it or the serving node stamped since the
// newest commit both stamped, at — or, when they share none, every page
// either ever wrote, and at 0.
func (g *Group) rejoinPlanLocked(b *backup) (j *repairJob, at uint64) {
	mine, theirs := &b.node.stamps, &g.primary.stamps
	for at = min(mine.hi, theirs.hi); at <= mine.hi && mine.hi-at < mine.n && theirs.hi-at < theirs.n; at-- {
		dst, held := mine.stamp(at)
		src, found := theirs.stamp(at)
		if held && found {
			return newRepairJob(b, g.syncRegionsLocked(), src, dst), at
		}
	}
	return newRepairJob(b, g.syncRegionsLocked(), 0, 0), 0
}

// startJoinLocked attaches job j's backup to the live stream and opens its
// transfer. The copy is fuzzy from here on, so the replica is not
// promotion-eligible until cut-over and its commit stamps vouch for nothing.
func (g *Group) startJoinLocked(j *repairJob) {
	b := j.b
	if g.copierIdleLocked() {
		// The group's copier budget starts accruing with its first draw.
		g.repairPumped, g.repairCredit = g.primary.Clock.Now(), 0
	}
	b.fuzzy = true
	b.node.stamps.n = 0
	b.setState(StateSyncing)
	if g.redo != nil {
		// The joiner consumes the redo ring from this instant: records
		// before the attach are covered by the state transfer, records
		// after it arrive in its (now open) ring copy.
		b.appliedTotal = g.redo.prodTotal
		b.appliedTxns = g.store.Committed()
	}
	b.job = j
	g.jobs = append(g.jobs, j)
	g.emit(obs.EventRepairStart, g.nodeIndexLocked(b.node.Name), uint64(j.planned), 0)
}

// abortJobLocked cancels backup b's in-flight join (pause or crash landed
// mid-transfer). The copy stays fuzzy: only a fresh transfer can make the
// replica consistent again.
func (g *Group) abortJobLocked(b *backup) {
	if b.job == nil {
		return
	}
	for i, j := range g.jobs {
		if j == b.job {
			g.jobs = append(g.jobs[:i], g.jobs[i+1:]...)
			break
		}
	}
	b.job = nil
	g.emit(obs.EventRepairAbort, g.nodeIndexLocked(b.node.Name), 0, 0)
	g.finishRepairIfIdleLocked()
}

// enrollFreshLocked builds a brand-new backup node with the group's region
// layout and, in an Active group, the consumer end of the current era's
// lane. With wire set it attaches the node to every live replication
// window on the spot — without touching the serving node's Memory Channel
// state; the caller wires the whole fanout afresh otherwise (the primary
// had no attachment left).
func (g *Group) enrollFreshLocked(i int, wire bool) (*backup, error) {
	specs, err := vista.Layout(g.store.Config())
	if err != nil {
		return nil, err
	}
	b := &backup{
		node:   NewNode(backupName(g.generation, i), g.params, nil),
		ackLag: ackStagger(g.params, i),
	}
	if g.dur != nil {
		// A fresh machine brings a fresh disk: a directory of its own for
		// its writer to open at its cut-over.
		b.node.walSlot = g.dur.slots
		g.dur.slots++
	}
	b.setState(StateGated) // gated until its join opens the stream
	if _, err := vista.PlaceRegions(b.node.Space, specs, regionBase); err != nil {
		return nil, err
	}
	if g.redo != nil {
		if err := g.redo.attach(b); err != nil {
			return nil, err
		}
	}
	if wire {
		if err := g.wireLocked(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// copierIdleLocked reports whether nothing draws on the copier's budget: no
// join in flight and no range move waiting to be paid.
func (g *Group) copierIdleLocked() bool { return len(g.jobs) == 0 && g.moveWant == 0 }

// pumpRepairLocked advances every in-flight join: the copier's payment and
// page copies (payRepairLocked), then each join's phase — ring drain and
// cut-over once its copy is complete.
func (g *Group) pumpRepairLocked(sync bool) {
	if g.copierIdleLocked() || g.crashed {
		// A crashed primary's regions may hold a torn mid-transaction
		// state: nothing ships until failover re-establishes a serving
		// source (which drops these jobs).
		return
	}
	g.payRepairLocked(g.primary.Clock.Now(), sync)
	for i := 0; i < len(g.jobs); {
		j := g.jobs[i]
		g.advanceJobLocked(j)
		if j.b.job != j { // cut over (slot cleared): drop the job
			g.jobs = append(g.jobs[:i], g.jobs[i+1:]...)
			continue
		}
		i++
	}
	g.finishRepairIfIdleLocked()
}

// payRepairLocked is the copier's share of a pump. The group has one budget,
// whatever draws on it: the simulated time up to until buys bytes at
// repairShare of the SAN bandwidth (with sync set, a synchronous Repair or
// range-move drive, every call is granted a whole chunk instead), the
// Syncing jobs draw on it in order, a range move out of the group (see
// MoveBudget) draws on what they leave, and what they draw is charged to the
// link at once, in whole packets — a few per commit, not a page-sized lump in
// front of every ninth. A joiner's page is copied, atomically at this commit
// boundary, by the pump that completes its payment; a move's paid pages are
// copied by the mover at its next pump. A flush calls this before its
// acknowledgement wait with the instant the wait will end: the wait's share
// then serializes behind the pointer packet on a link the commit path leaves
// idle, instead of in front of the next record. (No flush runs on a crashed
// primary.) A serving node with no SAN attachment accrues the budget and
// charges nothing.
func (g *Group) payRepairLocked(until sim.Time, sync bool) {
	if g.copierIdleLocked() {
		return
	}
	chunk := int64(g.chunkBytes())
	if sync {
		g.repairCredit = float64(chunk)
	} else if dt := until - g.repairPumped; dt > 0 {
		g.repairCredit += float64(dt) * g.repairRate()
		g.repairPumped = until
	}
	budget := min(int64(g.repairCredit), chunk)
	budget -= budget % int64(g.params.MaxPacket)
	var spent int64
	// A page copied while a transaction is open could carry bytes its abort
	// restores on the primary alone (the active scheme streams no undo, and
	// a full transfer's cursor never comes back): the joiners wait for a
	// pump outside the transaction while the budget accrues.
	if t := g.curHandle; t == nil || t.done {
		for _, j := range g.jobs {
			if j.b.state == StateSyncing {
				spent += j.pay(budget - spent)
			}
		}
		g.repair.BytesShipped += spent
		if a := g.autop; a != nil {
			for _, i := range a.open {
				a.events[i].RepairBytes += spent
			}
		}
	}
	move := min(budget-spent, g.moveWant)
	g.moveWant -= move
	g.movePaid += move
	spent += move
	g.repairCredit -= float64(spent)
	if mc := g.primary.MC; mc != nil {
		mc.EmitBulk(g.primary.Clock.Now(), int(spent), mem.CatSync)
	}
}

// advanceJobLocked moves one join through its phases: out of Syncing once
// every page is shipped, then ring drain and cut-over.
func (g *Group) advanceJobLocked(j *repairJob) {
	b := j.b
	if b.state == StateSyncing && j.head() == nil {
		if g.redo != nil {
			b.setState(StateCatchingUp)
			g.emit(obs.EventRepairCatchup, g.nodeIndexLocked(b.node.Name), uint64(j.shipped), 0)
		} else {
			// Passive cut-over: the live stream has covered every page
			// written since the attach, so the copy already equals the
			// primary modulo in-flight write buffers — exactly a normal
			// backup's position.
			g.cutOverLocked(b)
		}
	}
	if b.state == StateCatchingUp {
		c := g.redo
		c.applyDelivered(b)
		// Cut-over requires the group-commit batch to be closed: records
		// in an open batch were produced before the joiner acked, so they
		// were never reserved on its ring — enrolling now would let the
		// eventual flush publish unreserved bytes to it. With group commit
		// off the batch is always closed and this is the plain lag check.
		if c.prodTotal == c.pubTotal && c.prodTotal-b.appliedTotal <= cutoverLag {
			// Brief cut-over: drain the pointer tail through the write
			// buffers, apply the last records, and enroll.
			g.primary.Acc.Fence()
			c.applyDelivered(b)
			g.cutOverLocked(b)
		}
	}
}

// drainLinkLocked idles the serving node until everything submitted to the
// link has left it. A synchronous transfer is pushed onto the link at one
// clock reading; without this its tail would queue ahead of the commits that
// follow the call that claimed to have completed it.
func (g *Group) drainLinkLocked() {
	if d := sim.Dur(g.link.Drained() - g.primary.Clock.Now()); d > 0 {
		g.primary.MC.Idle(d)
	}
}

// cutOverLocked completes backup b's join: from this instant it is a full
// member — it receives, acknowledges, counts toward quorum, and is
// promotion-eligible again, and its copy holds exactly the commit it applied.
func (g *Group) cutOverLocked(b *backup) {
	b.job = nil
	b.fuzzy = false
	b.epoch = g.epoch // full member of the current era from this instant
	b.setState(StateInSync)
	if g.redo != nil {
		b.node.stamps.record(b.appliedTxns)
	} else {
		g.stampInSyncLocked()
	}
	_ = g.durJoinLocked(b.node)
	g.emit(obs.EventRepairCutover, g.nodeIndexLocked(b.node.Name), uint64(g.epoch), 0)
}

// finishRepairIfIdleLocked closes the repair summary once the last join
// has cut over.
func (g *Group) finishRepairIfIdleLocked() {
	if !g.repair.Active {
		return
	}
	g.repair.Joining = len(g.jobs)
	if len(g.jobs) == 0 {
		g.repair.Active = false
		g.repair.Elapsed = sim.Dur(g.primary.Clock.Now() - g.repairStarted)
		if g.autop != nil && g.restoredLocked() {
			// Genuinely back at full redundancy — not merely out of jobs
			// (an aborted join also empties the list): stamp the open
			// fault events' MTTR.
			g.autop.closeOpen(g.primary.Clock.Now())
		}
	}
}

// restoredLocked reports whether the group is back at full redundancy:
// every configured replica enrolled and acknowledging. This — not an empty
// job list — is what closes a fault event's MTTR: a join aborted by the
// next fault leaves the group degraded with no jobs in flight.
func (g *Group) restoredLocked() bool {
	if g.crashed || len(g.backups) != g.cfg.Backups {
		return false
	}
	for _, b := range g.backups {
		if b.state != StateInSync {
			return false
		}
	}
	return true
}

// newRepairJob opens backup b's transfer plan over the given source regions.
func newRepairJob(b *backup, srcs []*mem.Region, src, dst uint64) *repairJob {
	j := &repairJob{b: b}
	for _, r := range srcs {
		rr := repairRegion{src: r, dst: b.node.Space.ByName(r.Name)}
		rr.plan(src, dst)
		for _, p := range rr.pages {
			_, n := rr.span(p)
			j.planned += int64(n)
		}
		j.regions = append(j.regions, rr)
	}
	return j
}

// head returns the region of the next page the join must ship, or nil once
// every region is through.
func (j *repairJob) head() *repairRegion {
	for i := range j.regions {
		if rr := &j.regions[i]; len(rr.pages) > 0 {
			return rr
		}
	}
	return nil
}

// pay spends up to allow bytes of link budget on the job's remaining pages,
// in order, and returns the bytes spent. A page wholly paid for is copied —
// whole, at the current commit boundary — before the next one is started.
func (j *repairJob) pay(allow int64) int64 {
	left := allow
	for left > 0 {
		rr := j.head()
		if rr == nil {
			break
		}
		off, n := rr.span(rr.pages[0])
		due := min(left, int64(n)-j.paid)
		j.paid += due
		left -= due
		if j.paid == int64(n) {
			if cap(j.buf) < n {
				j.buf = make([]byte, n)
			}
			rr.src.ReadRaw(off, j.buf[:n])
			rr.dst.WriteRaw(off, j.buf[:n])
			j.paid = 0
			rr.pages = rr.pages[1:]
		}
	}
	j.shipped += allow - left
	return allow - left
}

// resyncSurvivorLocked brings a failover survivor behind the new primary by
// the re-join rule, driven to completion on the spot. Takeover happens with
// the cluster already down, so there is no stream to stay available for; the
// transfer is raw and uncharged, like Load's initial copy, and the survivor
// emerges InSync, its synced bytes the serving node's (its caller stamps it).
func (g *Group) resyncSurvivorLocked(b *backup) {
	j, _ := g.rejoinPlanLocked(b)
	j.pay(math.MaxInt64)
	b.job = nil
	b.fuzzy = false
	b.setState(StateInSync)
}
