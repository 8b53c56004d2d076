package replication

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vista"
)

// BackupState is the explicit lifecycle of one backup replica. The happy
// path of an online join runs Syncing → CatchingUp → InSync; partitions
// move a replica through Paused → Gated → (repair) → InSync.
//
//	InSync      receiving the live stream and acknowledging commits;
//	            promotion-eligible with its full applied prefix.
//	Paused      partitioned away from the SAN: receives nothing, acks
//	            nothing; its applied prefix is frozen but consistent, so
//	            it remains promotion-eligible at that prefix.
//	Gated       reachable again after a partition but with a gap in its
//	            stream: receive stays gated (applying past a gap would
//	            tear the copy) until RepairAsync re-enrolls it.
//	Syncing     mid-join: the background chunked state transfer is
//	            copying the primary's recoverable pages while the live
//	            stream is already being received. The copy is fuzzy, so
//	            the replica is not promotion-eligible.
//	CatchingUp  transfer complete (active scheme): draining the redo ring
//	            from its copy-start sequence until the lag falls under
//	            the cut-over threshold. Still not promotion-eligible.
//	Crashed     dead. Its reliable memory survives a crash (Rio), so the
//	            next repair re-joins the same node by delta; a node whose
//	            memory is gone (PowerFailNode) is replaced by a spare.
type BackupState int

// Backup lifecycle states.
const (
	StateInSync BackupState = iota
	StatePaused
	StateGated
	StateSyncing
	StateCatchingUp
	StateCrashed
)

// String names the state.
func (s BackupState) String() string {
	switch s {
	case StateInSync:
		return "in-sync"
	case StatePaused:
		return "paused"
	case StateGated:
		return "gated"
	case StateSyncing:
		return "syncing"
	case StateCatchingUp:
		return "catching-up"
	case StateCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("BackupState(%d)", int(s))
	}
}

// backup is one backup node plus its replication state.
type backup struct {
	node  *Node
	state BackupState
	// off gates the broadcast receive mappings; it shadows the state
	// (true outside the receiving states) because memchannel targets hold
	// a stable pointer to it.
	off bool
	// fuzzy marks a database copy torn by an interrupted state transfer:
	// the replica holds a mix of old and new pages and must never be
	// promoted until a fresh transfer completes.
	fuzzy bool
	// ackLag is the deterministic extra delivery/ack latency of this
	// backup relative to backup 0 (commodity clusters are not uniform;
	// the stagger is what separates quorum from 2-safe commit latency).
	ackLag sim.Dur
	// epoch is the membership epoch the replica last enrolled under.
	// Acknowledgements only count while it matches the group's epoch; a
	// replica that missed a membership change is fenced until it
	// re-enrolls (see Group.bumpEpochLocked).
	epoch int

	// Active-mode consumer state.
	ring         *sim.Ring
	bRing, bCtl  *mem.Region
	appliedTotal uint64 // bytes of the redo stream applied (monotonic)
	appliedTxns  uint64

	// job is the in-flight join while Syncing/CatchingUp.
	job *repairJob
}

// alive reports whether the backup still exists as a machine.
func (b *backup) alive() bool { return b.state != StateCrashed }

// acking reports whether the backup participates in commit
// acknowledgement: only a fully enrolled (InSync) replica may vouch for
// data — a joiner counts toward quorum exactly from its cut-over instant.
func (b *backup) acking() bool { return b.state == StateInSync }

// heard reports whether a heartbeat round reaches the backup: every
// member neither crashed nor partitioned away.
func (b *backup) heard() bool { return b.state != StateCrashed && b.state != StatePaused }

// receiving reports whether the backup consumes the live stream (its
// receive mappings are open).
func (b *backup) receiving() bool {
	return b.state == StateInSync || b.state == StateSyncing || b.state == StateCatchingUp
}

// joining reports whether an online join is in flight on this backup.
func (b *backup) joining() bool {
	return b.state == StateSyncing || b.state == StateCatchingUp
}

// promotable reports whether failover may serve from this replica: it must
// be alive and hold a consistent committed prefix, which a fuzzy or
// mid-join copy does not.
func (b *backup) promotable() bool { return b.alive() && !b.fuzzy && !b.joining() }

// setState moves the backup to s and keeps the receive gate in step.
func (b *backup) setState(s BackupState) {
	b.state = s
	b.off = !b.receiving()
}

// ackStagger returns backup i's extra one-way latency. Backup 0 has none,
// so a single-backup group reproduces the paper's pair timing exactly.
func ackStagger(p *sim.Params, i int) sim.Dur {
	return sim.Dur(i) * p.LinkLatency / 8
}

func backupName(generation, i int) string {
	if generation == 0 {
		if i == 0 {
			return "backup"
		}
		return fmt.Sprintf("backup-%d", i+1)
	}
	return fmt.Sprintf("backup-g%d-%d", generation, i+1)
}

// backupAt validates a backup index.
func (g *Group) backupAt(i int) (*backup, error) {
	if i < 0 || i >= len(g.backups) {
		return nil, ErrNoSuchBackup
	}
	return g.backups[i], nil
}

// BackupState returns backup i's lifecycle state (StateCrashed for an
// out-of-range index, matching a machine that is simply gone).
func (g *Group) BackupState(i int) BackupState {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, err := g.backupAt(i)
	if err != nil {
		return StateCrashed
	}
	return b.state
}

// leaveStreamLocked takes backup b off the live stream (a partition or a
// crash): an active backup applies what was delivered to it, and a passive
// one is stamped if it holds the primary's last commit exactly; either way
// its commit stamps bound what it will have missed. A join in flight is
// aborted and its copy stays fuzzy.
func (g *Group) leaveStreamLocked(b *backup) {
	switch b.state {
	case StateInSync:
		if g.redo != nil {
			g.redo.applyDelivered(b)
		} else {
			g.stampInSyncLocked()
		}
	case StateSyncing, StateCatchingUp:
		g.abortJobLocked(b)
	}
	if g.autop != nil {
		g.autop.noteFault(b.node.Name, g.primary.Clock.Now())
	}
}

// PauseBackup partitions backup i away from the SAN: it stops receiving
// (and acknowledging) until repaired. Its applied prefix freezes at the
// pause point, which is how tests — and commodity clusters — get replicas
// at unequal progress. Pausing a mid-join backup aborts the transfer and
// leaves the copy fuzzy.
func (g *Group) PauseBackup(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, err := g.backupAt(i)
	if err != nil {
		return err
	}
	g.pauseBackupLocked(b)
	return nil
}

// pauseBackupLocked partitions one backup away from the SAN (shared by
// PauseBackup and PartitionPrimary, which severs every backup at once).
func (g *Group) pauseBackupLocked(b *backup) {
	if b.state == StateCrashed || b.state == StatePaused {
		return
	}
	g.leaveStreamLocked(b)
	// A partition is not a power loss: the replica's WAL closes cleanly
	// at its frozen prefix.
	g.durLeaveLocked(b.node, true)
	b.setState(StatePaused)
}

// ResumeBackup reconnects a paused backup. It stays Gated — applying a
// stream with a gap would tear its copy — until RepairAsync re-enrolls it,
// shipping only the pages either side changed since the newest commit both
// stamped (or nothing at all when the gap is provably empty).
func (g *Group) ResumeBackup(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, err := g.backupAt(i)
	if err != nil {
		return err
	}
	if b.state != StatePaused {
		return nil
	}
	b.setState(StateGated)
	return nil
}

// CrashBackup kills backup i: it stops receiving, never acknowledges, and
// is not eligible for promotion. A mid-join victim's transfer is aborted.
// Its reliable memory survives, so the next repair re-joins the same node by
// the pages that changed since the last commit it holds.
func (g *Group) CrashBackup(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, err := g.backupAt(i)
	if err != nil {
		return err
	}
	g.crashBackupLocked(b)
	return nil
}

func (g *Group) crashBackupLocked(b *backup) {
	if b.state == StateCrashed {
		return
	}
	g.leaveStreamLocked(b)
	g.durLeaveLocked(b.node, false)
	b.setState(StateCrashed)
}

// PowerFailNode cuts one machine's power (-1 is the serving primary). Unlike
// a crash, its memory is gone: a spare replaces it, by a full transfer.
func (g *Group) PowerFailNode(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 {
		g.primary.lost = true
		if !g.crashed {
			g.crashLocked()
		}
		return nil
	}
	b, err := g.backupAt(i)
	if err != nil {
		return err
	}
	b.node.lost = true
	g.crashBackupLocked(b)
	return nil
}

// AppliedTxns returns the commit sequence backup i has applied (active
// scheme; passive backups report the committed count in their control copy).
func (g *Group) AppliedTxns(i int) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, err := g.backupAt(i)
	if err != nil {
		return 0
	}
	return g.backupProgress(b)
}

// backupProgress returns the backup's committed-prefix length.
func (g *Group) backupProgress(b *backup) uint64 {
	if g.redo != nil {
		if b.receiving() {
			g.redo.applyDelivered(b)
		}
		return b.appliedTxns
	}
	ctl := b.node.Space.ByName(vista.RegionControl)
	if ctl == nil {
		return 0
	}
	var buf [8]byte
	ctl.ReadRaw(0, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}
