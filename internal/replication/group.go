package replication

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/detect"
	"repro/internal/mem"
	"repro/internal/memchannel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vista"
)

// Group is one deployment: a primary store plus (outside Standalone) K
// backup nodes receiving its replicated state over the SAN's broadcast
// mappings. With K == 1 it is exactly the paper's primary-backup pair;
// larger K generalizes the same redo-shipping design into an N-replica
// group with a configurable commit-safety level.
//
// After a failover the group rewires itself in place: the most-caught-up
// promotable survivor is promoted, the remaining survivors re-sync behind
// it, and replication continues in the mode the group was built in — the
// group tolerates sequential failures for as long as replicas remain, and
// an Active group runs the active scheme through all of them. RepairAsync
// re-enrolls resumed and crashed nodes (the old primary included) from
// their own memory, and fresh nodes where memory is gone, online: the state
// transfer runs in the background of the commit stream (see recovery.go and
// the BackupState lifecycle), so the cluster keeps serving while it heals.
//
// # Concurrency
//
// A Group is safe for concurrent use under one discipline: every
// operation — each transaction-handle call and each management call —
// briefly holds a single per-group mutex. At most one transaction is open
// per group (the paper's single-stream engine): Begin blocks until the
// previous transaction commits or aborts, while independent groups — the
// shards of a ShardedCluster — proceed in parallel on independent
// goroutines. Management operations (Crash, Failover, RepairAsync, Settle,
// fault injection) interleave between individual transaction operations,
// so a crash can land in the middle of an open transaction exactly as on
// real hardware — the survivor rolls the in-flight transaction back, and
// the dead transaction's remaining calls fail with ErrCrashed. The
// statistics readers Stats, Committed and Elapsed never take the mutex:
// they read atomic counters and pointers, so aggregate monitoring across
// running shards neither blocks nor races.
type Group struct {
	cfg    Config
	params *sim.Params
	link   *sim.Link

	// mu serializes all operations; txFree signals Begin waiters when the
	// open transaction finishes (or dies with a crashed primary).
	mu        sync.Mutex
	txFree    *sync.Cond
	curHandle *groupTx // the open transaction's handle, nil when idle

	primary *Node
	backups []*backup
	store   *vista.Store

	// redo is an Active group's shipping lane, rebuilt by establish in every
	// era; nil in the other modes. laneBase is where each node's copy of the
	// ring sits: the first address past the engine's regions.
	redo     *redoChannel
	laneBase uint64

	crashed    bool
	generation int // bumped at every completed failover
	// epoch is the membership epoch: bumped at every failover and
	// enrollment, stamped onto fully enrolled members, and used to fence
	// acknowledgements from replicas that missed a membership change.
	epoch int

	// autop is the unattended failure loop (heartbeats, lease, detector,
	// self-healing); nil unless Config.Autopilot enables it.
	autop *autopilot

	// dur is the per-replica disk tier (redo WAL + snapshots); nil unless
	// Config.Durability enables it.
	dur *durable

	// obs is the group's pre-registered instrument set; nil unless
	// Config.Obs attaches a registry (see obs.go).
	obs *groupObs

	// Online-repair state: the in-flight joins, the aggregate summary
	// RepairStatus reports, and the copier's one budget — the bytes bought
	// and not yet spent, and the instant they are bought through (see
	// recovery.go). A range move out of the group draws on the same budget:
	// moveWant is what it asked for and was not paid yet, movePaid what was
	// paid and not yet taken (see MoveBudget).
	jobs          []*repairJob
	repair        RepairStatus
	repairStarted sim.Time
	repairCredit  float64
	repairPumped  sim.Time
	moveWant      int64
	movePaid      int64

	// servingRef and servingStore shadow the serving node and store for
	// the lock-free statistics readers. The node and its measured-
	// interval origin live in one atomically-swapped value so Elapsed can
	// never mix one node's clock with another's origin mid-failover.
	servingRef   atomic.Pointer[measureRef]
	servingStore atomic.Pointer[vista.Store]
	interval     uint64 // numbers the measured interval (see workLocked)

	// Group-commit state (see Config.CommitBatch): commits joined to the
	// open batch since the last flush, and the simulated time the batch
	// opened.
	batchCount int
	batchStart sim.Time

	// Deferral state (see Defer/Seal): the number of open acknowledgement-
	// deferral scopes — count-based sealing is suspended while any is
	// open — and whether a primary died holding their unsealed commits.
	deferDepth int
	deferLost  bool

	// Recycled scratch for the commit path (all under mu). The handle is
	// recycled only after a clean Commit/Abort: a handle orphaned by a
	// mid-transaction crash keeps sole ownership of its value forever, so
	// a stale holder can never alias a newer transaction.
	ackBuf []sim.Time
	freeTx *groupTx

	// readCursor is the round-robin cursor that spreads routed reads
	// across eligible backups (see readview.go).
	readCursor uint64
}

// measureRef is the measured interval as Elapsed reads it, in one atomic
// load: the serving node with its clock reading when the interval began,
// the latest acknowledgement instant it sealed (acked, shared by the
// copies), and each backup that served a read in the interval with its
// busy reading then (see Node.busy). It is replaced, never mutated.
type measureRef struct {
	node    *Node
	origin  sim.Time
	acked   *sim.Clock
	readers []measureRef
}

// settle idles the serving node until its outstanding acknowledgement.
func (r *measureRef) settle() { r.node.Clock.AdvanceTo(r.acked.Now()) }

// NewGroup constructs and wires a deployment of cfg.Backups replicas.
func NewGroup(cfg Config) (*Group, error) {
	params := cfg.Params
	if params == nil {
		def := sim.Default()
		params = &def
	}
	if !cfg.Safety.Valid() {
		return nil, fmt.Errorf("replication: invalid safety level %d", int(cfg.Safety))
	}
	if cfg.Mode == Active && cfg.Store.Version != vista.V3InlineLog {
		return nil, ErrActiveNeedV3
	}
	if cfg.Safety != OneSafe && cfg.Mode != Passive && cfg.Mode != Active {
		return nil, ErrSafetyNeedsBackup
	}
	if cfg.Backups < 0 {
		return nil, fmt.Errorf("replication: negative backup count %d", cfg.Backups)
	}
	if cfg.CommitBatch < 0 {
		return nil, fmt.Errorf("replication: negative commit batch %d", cfg.CommitBatch)
	}
	if cfg.RepairChunk < 0 {
		return nil, fmt.Errorf("replication: negative repair chunk %d", cfg.RepairChunk)
	}
	if cfg.Autopilot.HeartbeatPeriod < 0 {
		return nil, fmt.Errorf("replication: negative heartbeat period %v", cfg.Autopilot.HeartbeatPeriod)
	}
	if cfg.Autopilot.Enabled() {
		if cfg.Mode == Standalone {
			return nil, ErrAutopilotNeedsPeers
		}
		if cfg.Autopilot.Spares < 0 {
			return nil, fmt.Errorf("replication: negative spare count %d", cfg.Autopilot.Spares)
		}
	}
	switch cfg.Mode {
	case Standalone:
		cfg.Backups = 0
	case Passive, Active:
		if cfg.Backups == 0 {
			cfg.Backups = 1
		}
	default:
		return nil, fmt.Errorf("replication: invalid mode %d", int(cfg.Mode))
	}

	g := &Group{cfg: cfg, params: params}
	g.txFree = sync.NewCond(&g.mu)
	g.obs = newGroupObs(cfg.Obs, cfg)

	specs, err := vista.Layout(cfg.Store)
	if err != nil {
		return nil, err
	}

	g.primary = NewNode("primary", params, nil)
	if g.laneBase, err = vista.PlaceRegions(g.primary.Space, specs, regionBase); err != nil {
		return nil, err
	}
	if cfg.Mode != Standalone {
		if err := g.newBackupNodes(specs); err != nil {
			return nil, err
		}
	}
	// The passive scheme doubles the engine's own stores, formatting
	// included, so its fan-out is mapped before the store opens; the active
	// lane starts from the open store's committed count.
	if cfg.Mode == Passive {
		if err := g.attachLocked(); err != nil {
			return nil, err
		}
	}
	store, err := vista.Open(cfg.Store, g.primary.Acc, g.primary.Rio)
	if err != nil {
		return nil, err
	}
	g.store = store
	g.servingStore.Store(store)
	if cfg.Mode == Active {
		if err := g.establish(); err != nil {
			return nil, err
		}
	}
	// Every node starts out holding the store's opening state.
	g.primary.stamps.record(store.Committed())
	g.stampInSyncLocked()
	if cfg.Autopilot.Enabled() {
		g.autop = newAutopilot(cfg.Autopilot)
		now := g.primary.Clock.Now()
		g.autop.lease = detect.NewLease(detect.Config{HeartbeatPeriod: cfg.Autopilot.HeartbeatPeriod}.DeadAfter(), now)
		g.autop.rewatch(g, now)
	}
	// Cold-restart recovery (and the disk tier's first checkpoints) run
	// before the measured interval opens.
	if err := g.initDurability(); err != nil {
		return nil, err
	}
	// Initialization traffic (heap formatting and the like) is not part
	// of any measured interval.
	g.resetMeasurementLocked()
	return g, nil
}

// newBackupNodes constructs the K backup nodes with their vista regions.
func (g *Group) newBackupNodes(specs []vista.RegionSpec) error {
	for i := 0; i < g.cfg.Backups; i++ {
		b := &backup{
			node:   NewNode(backupName(0, i), g.params, nil),
			ackLag: ackStagger(g.params, i),
		}
		b.setState(StateInSync)
		if _, err := vista.PlaceRegions(b.node.Space, specs, regionBase); err != nil {
			return err
		}
		g.backups = append(g.backups, b)
	}
	return nil
}

// attachLocked puts the serving node on the SAN: a fresh Memory Channel
// attachment whose windows are mapped onto every backup. The group has no
// link after a failover — the dead primary's kept time on that node's clock
// — so the promoted node gets a new one; with no live backup to ship to it
// stays off the SAN until RepairAsync brings one back.
func (g *Group) attachLocked() error {
	if !slices.ContainsFunc(g.backups, (*backup).alive) {
		return nil
	}
	if g.link == nil {
		g.link = sim.NewLink(g.params)
	}
	p := g.primary
	p.MC = memchannel.NewNode(g.params, p.Clock, g.link)
	p.Acc.IO = p.MC
	return g.mapFanout()
}

// mapFanout maps every write-through (or I/O-only) region of the primary
// onto the same-named region of every backup: one transmitted packet, K
// receivers, each gated by its backup's partition flag.
func (g *Group) mapFanout() error {
	for _, r := range g.primary.Space.Regions() {
		if r.WriteThrough || r.IOOnly {
			if err := g.primary.MC.Map(memchannel.Mapping{SrcBase: r.Base, Size: r.Size()}); err != nil {
				return err
			}
		}
	}
	for _, b := range g.backups {
		if err := g.wireLocked(b); err != nil {
			return err
		}
	}
	return nil
}

// wireLocked adds backup b as a receiver of every window the serving node
// maps, each copy gated by b's partition flag.
func (g *Group) wireLocked(b *backup) error {
	for _, r := range g.primary.Space.Regions() {
		if !r.WriteThrough && !r.IOOnly {
			continue
		}
		d := b.node.Space.ByName(r.Name)
		if d == nil {
			return fmt.Errorf("replication: backup %q lacks region %q", b.node.Name, r.Name)
		}
		if err := g.primary.MC.AddTarget(r.Base, memchannel.Target{Dst: d, Down: &b.off}); err != nil {
			return err
		}
	}
	return nil
}

// Store returns the currently serving transaction server: the primary, or
// the promoted survivor after a failover. Safe for concurrent use.
func (g *Group) Store() *vista.Store { return g.servingStore.Load() }

// Primary exposes the serving node for instrumentation. Safe for
// concurrent use; the node's own structures follow the group discipline.
func (g *Group) Primary() *Node { return g.servingRef.Load().node }

// Backup returns the first backup node, or nil in Standalone mode (the
// paper's pair has exactly one).
func (g *Group) Backup() *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.backups) == 0 {
		return nil
	}
	return g.backups[0].node
}

// BackupNode returns backup i's node for instrumentation.
func (g *Group) BackupNode(i int) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 || i >= len(g.backups) {
		return nil
	}
	return g.backups[i].node
}

// Backups returns the current number of backup nodes, crashed ones included
// until a repair re-joins them (or drops those whose memory is gone).
func (g *Group) Backups() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.backups)
}

// Generation returns how many failovers the group has completed.
func (g *Group) Generation() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.generation
}

// Safety returns the configured commit discipline.
func (g *Group) Safety() Safety { return g.cfg.Safety }

// Params returns the simulation parameters in effect.
func (g *Group) Params() *sim.Params { return g.params }

// QuiesceGrace returns the simulated idle time that drains everything in
// flight: the stale-buffer age, the posted-write window's serialization,
// and the delivery plus acknowledgement latency. Facades use it as the
// Settle duration instead of a hardcoded constant.
func (g *Group) QuiesceGrace() sim.Dur {
	p := g.params
	return p.DrainAge + sim.Dur(p.PostedDepth)*p.PacketTime(p.MaxPacket) + 2*p.LinkLatency
}

// Now returns the serving node's simulated clock reading.
func (g *Group) Now() sim.Time { return g.Primary().Clock.Now() }

// MoveBudget is a cross-group range mover's draw on the group's copier
// budget, the one its joiners draw on: the mover wants want more bytes
// shipped out of the group, and gets back the bytes the copier has paid for
// the move since its last call — what it may now copy. The copier pays the
// move from what the joiners leave, on this group's link alone (see
// payRepairLocked): the target group receives the bytes without
// transmitting any. The call pumps the copier like a commit does; with sync
// set — a synchronous drive — the pump is granted the whole chunk Repair's
// loop takes. A failover drops the demand with the move it belonged to.
func (g *Group) MoveBudget(want int, sync bool) (paid int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.copierIdleLocked() {
		g.repairPumped, g.repairCredit = g.primary.Clock.Now(), 0
	}
	g.moveWant = max(int64(want)-g.movePaid, 0)
	g.pumpRepairLocked(sync)
	paid, g.movePaid = int(g.movePaid), 0
	return paid
}

// Load installs initial database content on the primary and synchronizes
// every backup's copies raw (the initial full-database transfer that
// precedes failure-free operation). Doubled stores still in the primary's
// write buffers — an abort's restores on a Passive group — leave first, so
// none of them lands on a backup over the loaded bytes.
func (g *Group) Load(off int, data []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.primary.Acc.Fence()
	if err := g.store.Load(off, data); err != nil {
		return err
	}
	if g.dur != nil {
		g.dur.load(off, data)
	}
	for _, name := range []string{vista.RegionDB, vista.RegionMirror} {
		src := g.primary.Space.ByName(name)
		if src == nil {
			continue
		}
		for _, b := range g.backups {
			dst := b.node.Space.ByName(name)
			if dst == nil {
				continue
			}
			dst.WriteRaw(off, readRaw(src, off, len(data)))
		}
	}
	return nil
}

// ResetMeasurement starts a measured interval: statistics are zeroed and
// the interval origin is pinned to the current simulated time. Simulated
// time itself flows on — cache warmth, link queues and ring timelines keep
// their state, exactly like starting a stopwatch mid-run.
func (g *Group) ResetMeasurement() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.resetMeasurementLocked()
	// The obs registry's window resets with the sim counters (and
	// atomically with respect to scrapes — Registry.Reset serializes
	// against Snapshot), so scrape deltas straddling the cut are
	// detectable via Snapshot.Window. Only the explicit public reset
	// does this: the internal resetMeasurementLocked call a failover
	// makes must NOT erase the observability record of the incident.
	if g.obs != nil {
		g.obs.reg.Reset()
	}
}

func (g *Group) resetMeasurementLocked() {
	g.primary.Cache.ResetStats()
	if g.primary.MC != nil {
		g.primary.MC.ResetStats()
	}
	for _, b := range g.backups {
		b.node.Cache.ResetStats()
		if b.node.MC != nil {
			b.node.MC.ResetStats()
		}
	}
	if g.link != nil {
		g.link.ResetStats()
	}
	// An acknowledgement in flight is settled on the node that sealed it. No
	// backup has served a read in the new interval yet: one that does joins
	// it then (see noteReaderLocked).
	if r := g.servingRef.Load(); r != nil {
		r.settle()
	}
	g.interval++
	g.servingRef.Store(&measureRef{node: g.primary, origin: g.primary.Clock.Now(), acked: new(sim.Clock)})
}

// workLocked charges d of backup work to node n's busy time, marking where
// the node's work in the current interval began.
func (g *Group) workLocked(n *Node, d sim.Dur) {
	if n.markAt != g.interval {
		n.mark, n.markAt = n.busy.Now(), g.interval
	}
	n.busy.Advance(d)
}

// noteReaderLocked publishes backup node n, just charged a read, as a read
// server of the measured interval unless it already is one.
func (g *Group) noteReaderLocked(n *Node) {
	r := g.servingRef.Load()
	for _, rd := range r.readers {
		if rd.node == n {
			return
		}
	}
	next := *r
	next.readers = append(slices.Clip(r.readers), measureRef{node: n, origin: n.mark})
	g.servingRef.Store(&next)
}

// Elapsed returns the simulated time of the measured interval since the
// last ResetMeasurement: the longest of the serving node's span (through
// the acknowledgement a seal left in flight) and the work (Node.busy) of
// every backup that served a read in it. The primary and its read views run
// in parallel on their own CPUs (like the shards of a Cluster), so the
// interval lasts as long as its busiest node. Lock-free: safe to sample
// while transactions run — the nodes and their origins are read as one
// atomic value, so a concurrent failover can never mix two timelines.
func (g *Group) Elapsed() sim.Time {
	r := g.servingRef.Load()
	e := max(r.node.Clock.Now(), r.acked.Now()) - r.origin
	for _, rd := range r.readers {
		e = max(e, rd.node.busy.Now()-rd.origin)
	}
	return e
}

// Stats returns the serving store's transaction counters. Lock-free.
func (g *Group) Stats() vista.Stats { return g.servingStore.Load().Stats() }

// Committed returns the serving store's committed-transaction count.
// Lock-free.
func (g *Group) Committed() uint64 { return g.servingStore.Load().Committed() }

// NetBytes returns SAN payload bytes by category (paper Tables 2, 5, 7;
// state-transfer chunks appear under mem.CatSync). The byte counters
// themselves are atomic; the brief lock here only pins the Memory Channel
// attachment, which failover replaces.
func (g *Group) NetBytes() map[mem.Category]int64 {
	g.mu.Lock()
	mc := g.primary.MC
	g.mu.Unlock()
	if mc == nil {
		return map[mem.Category]int64{}
	}
	return mc.CategoryBytes()
}

// ReadRaw copies database bytes without charging simulated time,
// serialized with the group's transactions.
func (g *Group) ReadRaw(off int, dst []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.store.ReadRaw(off, dst)
}

// DirtyStamps images the serving database's per-page dirty stamps, from the
// page holding byte off, into dst and returns the generation they were read
// in, under one hold of the group lock: a cross-group mover that compares
// two images learns from the return value that a failover came between them
// and the stamps are two nodes' unrelated sequences.
func (g *Group) DirtyStamps(off int, dst []uint64) (generation int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.primary.Space.ByName(vista.RegionDB).Dirty.Stamps(off, dst)
	return g.generation
}

// Settle lets the deployment go idle for d of simulated time: any open
// group-commit batch is flushed, pending write buffers self-drain, and the
// background state-transfer copier — if a repair is in flight — keeps
// streaming through the quiet period. Everything committed before Settle
// is on every reachable backup afterwards. Demos use it to separate "crash
// right now" (the 1-safe window applies) from "crash after a quiet
// moment".
func (g *Group) Settle(d sim.Dur) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.crashed {
		_ = g.flushLocked()
	}
	if g.primary.MC != nil && !g.crashed {
		g.primary.MC.Idle(d)
	}
	if g.redo != nil {
		// Each backup's applier catches up on everything delivered
		// during the quiet period.
		for _, b := range g.backups {
			g.redo.applyDelivered(b)
		}
	} else if !g.crashed {
		g.stampInSyncLocked()
	}
	if !g.crashed {
		g.pumpRepairLocked(false)
		g.autopilotPumpLocked()
		g.durSettleLocked()
	}
}

// Crash kills the primary: stores still coalescing in its write buffers
// are lost (the 1-safe window); everything already emitted is delivered.
// An open transaction dies with the node — its remaining operations fail
// with ErrCrashed and the survivor rolls it back at takeover. An open
// group-commit batch dies too: its commits were never named by a
// delivered producer pointer, the batched generalization of the same
// window. An in-flight repair dies with its transfer source: the joiners
// stay fuzzy and re-enroll from the promoted survivor.
func (g *Group) Crash() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crashed {
		return ErrCrashed
	}
	g.crashLocked()
	return nil
}

func (g *Group) crashLocked() {
	// Heartbeat rounds due before the failure instant were genuinely
	// emitted by the then-alive node; exchange them first, then stamp the
	// fault's ground-truth instant for the MTTD accounting.
	g.autopilotPumpLocked()
	if g.autop != nil {
		g.autop.crashedAt = g.primary.Clock.Now()
	}
	g.crashPrimaryLocked()
}

// Crashed reports whether the serving primary has crashed.
func (g *Group) Crashed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.crashed
}

// Failover promotes the most-caught-up promotable survivor (highest
// applied commit sequence; mid-join replicas hold fuzzy copies and are
// never candidates) and rewires the group in place: the promoted node
// serves, the remaining survivors are re-synced behind it and replication
// continues in the group's own scheme (an Active group establishes a fresh
// redo lane on the promoted node), so another Crash/Failover cycle works for
// as long as replicas remain. The crashed primary stays a member, crashed,
// for the next repair to re-join from its own memory (see demoteLocked).
// Returns the recovered store, ready to serve.
func (g *Group) Failover() (*vista.Store, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failoverLocked()
}

func (g *Group) failoverLocked() (*vista.Store, error) {
	switch {
	case !g.crashed:
		return nil, ErrNotCrashed
	}
	// The transfer source is gone: every in-flight join dies with it, and so
	// does a range move's demand (the mover restarts from its fence).
	for _, b := range g.backups {
		if b.joining() {
			g.abortJobLocked(b)
			b.setState(StateGated)
		}
	}
	g.jobs = nil
	g.moveWant, g.movePaid = 0, 0
	// Pick the most-caught-up promotable survivor.
	var best *backup
	var bestProgress uint64
	promoted := -1
	for i, b := range g.backups {
		if !b.promotable() {
			continue
		}
		p := g.backupProgress(b)
		if best == nil || p > bestProgress {
			best, bestProgress, promoted = b, p, i
		}
	}
	if best == nil {
		return nil, ErrNoBackup
	}

	// Takeover: the promoted node starts cold — its cache is flushed
	// before recovery so takeover time is charged fairly.
	best.node.Cache.Flush()
	var (
		st  *vista.Store
		err error
	)
	if g.redo != nil {
		st, err = g.redo.takeover(best)
	} else {
		st, err = vista.Recover(g.cfg.Store, best.node.Acc, best.node.Rio, vista.RecoverBackup)
	}
	if err != nil {
		return nil, err
	}

	// Era transition: the survivor serves, and every other node whose
	// memory survived re-enrolls behind it, its record cut back to the
	// promoted prefix t: the new lineage reuses the later commit numbers.
	t := st.Committed()
	kept := make([]*backup, 0, len(g.backups)+1)
	for _, b := range g.backups {
		if b != best && !b.node.lost {
			b.node.stamps.forget(t)
			kept = append(kept, b)
		}
	}
	if b := g.demoteLocked(t); b != nil {
		kept = append(kept, b)
	}
	g.generation++
	g.primary = best.node
	g.store = st
	g.crashed = false
	// servingRef (node + interval origin) is swapped as one value by
	// resetMeasurementLocked below; until then lock-free readers keep a
	// consistent view of the old era.
	g.servingStore.Store(st)
	if err := g.wireSurvivors(kept); err != nil {
		return nil, err
	}
	// Era transition complete: a fresh membership epoch fences any
	// acknowledgement stamped by the old era, and the failure loop (when
	// enabled) rebuilds its watch set around the promoted primary.
	g.durFailoverLocked()
	g.bumpEpochLocked()
	if a := g.autop; a != nil {
		now := g.primary.Clock.Now()
		a.partitioned = false
		a.rewatch(g, now)
		a.lease.Renew(now)
	}
	// The serving clock changed machines: re-pin the measured interval so
	// Elapsed never mixes the old primary's timeline with the new one.
	g.resetMeasurementLocked()
	g.emit(obs.EventFailover, promoted, uint64(g.epoch), uint64(g.generation))
	return st, nil
}

// demoteLocked keeps the crashed primary's node as a crashed backup that
// re-joins from its own memory; nil when its memory is gone or out of reach,
// or its commit stamps, cut back to t, the promoted prefix, hold no commit.
// The regions its scheme syncs keep everything, the commits after t it must
// lose included; the rest — an active node's undo log and control, the
// producer lane, a mirror engine's set-range array — are released.
func (g *Group) demoteLocked(t uint64) *backup {
	n := g.primary
	if n.lost || (g.autop != nil && g.autop.partitioned) {
		return nil
	}
	n.stamps.forget(t)
	if n.stamps.n == 0 {
		return nil
	}
	sync := g.syncRegionsLocked()
	for _, r := range n.Space.Regions() {
		if !slices.Contains(sync, r) {
			if r.Release() != nil {
				return nil // the host refused fresh memory: a spare replaces the node
			}
			r.IOOnly = false
		}
	}
	n.MC, n.Acc.IO = nil, nil
	b := &backup{node: n}
	b.setState(StateCrashed)
	return b
}

// wireSurvivors opens the promoted node's era in the group's own scheme —
// an Active group establishes a fresh lane, a Passive one maps the node's
// recoverable regions — for the given backups, and re-synchronizes the live
// ones behind it, driven to completion on the spot, since takeover happens
// with the cluster already down.
func (g *Group) wireSurvivors(backups []*backup) error {
	g.backups = backups
	g.link = nil
	wire := g.attachLocked
	if g.cfg.Mode == Active {
		wire = g.establish
	}
	if err := wire(); err != nil {
		return err
	}
	for i, b := range g.backups {
		b.ackLag = ackStagger(g.params, i)
		if b.alive() {
			g.resyncSurvivorLocked(b)
		}
	}
	g.stampInSyncLocked()
	return nil
}

// SetTrace attaches a trace recorder to the primary's SAN interactions for
// the SMP capture runs; nil detaches. Redo-ring reserve and publish events
// are recorded through the same node, so one recorder sees everything.
func (g *Group) SetTrace(t *sim.Trace) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.primary.MC != nil {
		g.primary.MC.SetTrace(t)
	}
}

func readRaw(r *mem.Region, off, n int) []byte {
	buf := make([]byte, n)
	r.ReadRaw(off, buf)
	return buf
}
