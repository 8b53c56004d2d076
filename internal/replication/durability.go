// Durability tier: the per-replica disk under the replicated memory.
//
// The paper's clusters survive single-machine faults through replication
// alone — a full-cluster power loss loses everything, because every copy
// lives in (battery-backed, but finite) RAM. This file adds the missing
// tier: each replica owns an append-only redo WAL (internal/wal) that
// mirrors the commit stream, plus periodic snapshot/checkpoint files, on
// its own directory of the host filesystem.
//
// Cost model: the WAL piggybacks on group commit. A commit frame is
// encoded once per transaction, under the group mutex, from the writes the
// group transaction staged (the same capture the active scheme's redo
// record ships), into a shared pending buffer; each batch flush appends
// the buffer to every member's segment and pays one fdatasync,
// never one per transaction. The disk tier is host-side bookkeeping: it
// charges no simulated time, and with Durability off the group is
// bit-for-bit the memory-replicated simulation.
//
// Consistency across faults:
//
//   - Era fencing. Every failover and every cold restart opens a new era;
//     each surviving member checkpoints into it immediately. A deposed
//     primary's orphaned tail (commits the promoted lineage never saw)
//     stays on its disk under the old era and older generations, where
//     the recovery chain rule fences it out.
//   - Membership. A node is a member exactly while its WAL writer has a
//     segment open: the serving node and every in-sync backup. A node
//     joins (durJoinLocked) by a fresh checkpoint at its cut-over, so its
//     newest segment's base is the stream position it provably holds, and
//     leaves (durLeaveLocked) at a pause or a crash, its directory frozen
//     at the departure prefix.
//   - Cold restart. Recovery loads every replica directory, picks the
//     winner by (era, seq), seeds the serving store with its image and
//     commit sequence, re-enrolls matching replicas on the spot, and
//     rejoins lagging ones through the chunked-transfer repair engine.
package replication

import (
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/wal"
)

// DurabilityConfig switches on and tunes the per-replica disk tier. The
// zero value disables it entirely: nothing touches the host filesystem
// and the simulation's metrics are bit-for-bit those of a purely
// memory-replicated group.
//
// Disk time is host time, not simulated time: fsyncs piggyback on group
// commit (one fdatasync per batch flush, not per transaction) and never
// charge the simulated clock, so the paper's tables are unaffected.
type DurabilityConfig struct {
	// Dir is the deployment's durability directory; each replica slot
	// writes under Dir/node-NNN. Empty disables the tier.
	Dir string
	// SnapshotEvery is the number of commits between checkpoints
	// (snapshot write + WAL rotation + pruning). Default 1024. Smaller
	// intervals shorten cold-restart replay at the price of more
	// snapshot writes.
	SnapshotEvery int
}

// Enabled reports whether the configuration switches the disk tier on.
func (c DurabilityConfig) Enabled() bool { return c.Dir != "" }

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1024
	}
	return c
}

// ErrNoDurability is returned by the durability-only operations
// (PowerFail) when the group runs without the disk tier.
var ErrNoDurability = errors.New("replication: durability not configured")

// RecoveryInfo describes what a cold restart found on disk.
type RecoveryInfo struct {
	// Recovered is true when any replica directory yielded prior state.
	Recovered bool
	// Era and Seq identify the winning replica's recovered position
	// (the era fences a deposed lineage's orphaned tail out).
	Era uint32
	Seq uint64
	// SnapSeq is the winner's base snapshot sequence; Replayed counts
	// the WAL records applied on top of it.
	SnapSeq  uint64
	Replayed int
	// TruncatedBytes counts corrupt or torn bytes dropped across every
	// replica directory.
	TruncatedBytes int64
	// Resynced counts replicas whose disk state matched the winner and
	// re-enrolled on the spot; Rejoined counts lagging (or corrupt)
	// replicas rebuilt through the chunked transfer engine.
	Resynced int
	Rejoined int
}

// DurabilityStatus is the introspection snapshot of the disk tier.
type DurabilityStatus struct {
	// Enabled reports whether the tier is on.
	Enabled bool
	// Dir is the deployment's durability directory.
	Dir string
	// Era is the current durability era (bumped at every failover and
	// cold restart).
	Era uint32
	// Seq is the last commit sequence encoded into the WAL stream.
	Seq uint64
	// DurableSeq is the last sequence an fdatasync on the serving
	// replica has covered: the prefix a power loss cannot take.
	DurableSeq uint64
	// SnapshotSeq is the sequence of the most recent checkpoint.
	SnapshotSeq uint64
	// Replicas is the number of replica slots (directories) in use.
	Replicas int
	// Recovery describes what this incarnation's cold restart found.
	Recovery RecoveryInfo
}

// durable is the group's durability engine: the group hands it each
// committed transaction's staged writes and each bulk load, and it ships
// them to the members' WALs at every batch flush. Every method runs under
// the group mutex.
type durable struct {
	cfg DurabilityConfig

	// slots counts the node directories (Node.walSlot) handed out so far.
	slots int

	era uint32
	seq uint64

	// pending holds the frames committed since the last batch flush;
	// one flush appends it to every member in a single write.
	pending []byte

	lastCkpt uint64
	img      []byte

	// dead marks a power-failed (or closed) tier: every hook is inert.
	dead bool

	// reg is the deployment's metrics registry (nil when uninstrumented);
	// each node's writer attaches to it when it opens.
	reg *obs.Registry

	// tails records each member's live segment at the PowerFail instant.
	tails []WALTail

	recovery RecoveryInfo
}

// WALTail describes one replica's live WAL segment at the instant of a
// power failure. Bytes past Synced were written without an fsync and
// carry no durability guarantee — the scenario layer tears, flips or
// zeroes them to model what a power loss may do to the page cache, and
// recovery must still come back with every synced transaction.
type WALTail struct {
	// Path is the live segment's file path.
	Path string
	// Synced is the segment offset the last fdatasync covered.
	Synced int64
}

func (d *durable) slotDir(slot int) string {
	return filepath.Join(d.cfg.Dir, fmt.Sprintf("node-%03d", slot))
}

// load records a non-transactional bulk load as a RecLoad frame at the
// current sequence.
func (d *durable) load(off int, data []byte) {
	if !d.dead {
		d.pending = wal.AppendLoadFrame(d.pending, d.era, d.seq, off, data)
	}
}

// commit seals the writes t staged into one commit frame at seq. Encoding
// happens here, once per transaction; the disk write and fsync wait for
// the batch flush.
func (d *durable) commit(seq uint64, t *groupTx) {
	if !d.dead && seq > d.seq {
		d.pending = wal.AppendCommitFrame(d.pending, d.era, seq, t.offs, t.lens, t.data)
		d.seq = seq
	}
}

// walMembers yields the members' writers: the serving node's, then the
// in-sync backups' in order.
func (g *Group) walMembers() iter.Seq[*wal.Replica] {
	return func(yield func(*wal.Replica) bool) {
		if g.primary.walOpen() && !yield(g.primary.wal) {
			return
		}
		for _, b := range g.backups {
			if b.node.walOpen() && !yield(b.node.wal) {
				return
			}
		}
	}
}

// durAppendLocked hands the sealed frames to every member's segment
// buffer (no disk I/O yet).
func (g *Group) durAppendLocked() {
	d := g.dur
	if len(d.pending) == 0 {
		return
	}
	for r := range g.walMembers() {
		r.Append(d.pending, d.seq)
	}
	d.pending = d.pending[:0]
}

// durFlushLocked is the group-commit piggyback: called once per batch
// flush (once per commit in the unbatched modes) and by Settle, it ships
// the pending frames to every member and syncs them. When a checkpoint is
// due and the store is between transactions (the image is then
// committed-consistent), every member snapshots it and rotates its
// segment; a failure leaves lastCkpt in place, so the next flush retries.
func (g *Group) durFlushLocked() error {
	d := g.dur
	if d == nil || d.dead {
		return nil
	}
	g.durAppendLocked()
	for r := range g.walMembers() {
		if err := r.Sync(); err != nil {
			return err
		}
	}
	if d.seq-d.lastCkpt < uint64(d.cfg.SnapshotEvery) || g.store.InTx() {
		return nil
	}
	img := d.image(g)
	for r := range g.walMembers() {
		if err := r.Checkpoint(d.era, d.seq, img); err != nil {
			return err
		}
	}
	d.lastCkpt = d.seq
	return nil
}

// image reads the serving store's committed bytes (valid only between
// transactions).
func (d *durable) image(g *Group) []byte {
	n := g.store.DBSize()
	if cap(d.img) < n {
		d.img = make([]byte, n)
	}
	d.img = d.img[:n]
	g.store.ReadRaw(0, d.img)
	return d.img
}

// durJoinLocked makes node n a member in the current era: its writer opens
// in its own directory at its first join, and a fresh checkpoint at the
// current sequence makes its newest segment's base exactly the stream
// position n holds. A disk error abandons the writer: the node stays out
// of the tier rather than failing its join.
func (g *Group) durJoinLocked(n *Node) error {
	d := g.dur
	if d == nil || d.dead {
		return nil
	}
	if n.wal == nil {
		r, err := wal.NewReplica(d.slotDir(n.walSlot))
		if err != nil {
			return err
		}
		r.Attach(d.reg, n.walSlot)
		n.wal = r
	}
	g.durAppendLocked()
	err := n.wal.Checkpoint(d.era, d.seq, d.image(g))
	if err != nil {
		n.wal.Abandon()
	}
	return err
}

// durLeaveLocked takes node n out of the tier: cleanly (sync and close, so
// a pause keeps its durable prefix exact) or abandoned (a crash leaves the
// unsynced tail to the page cache). The serving node's pending frames
// belong to transactions it committed locally: they reach its page cache,
// written but not synced, and no other member's.
func (g *Group) durLeaveLocked(n *Node, clean bool) {
	d := g.dur
	if d == nil || d.dead {
		return
	}
	if n == g.primary {
		if n.walOpen() {
			n.wal.Append(d.pending, d.seq)
		}
		d.pending = d.pending[:0]
	}
	if n.wal == nil {
		return
	}
	if clean {
		_ = n.wal.Close()
	} else {
		n.wal.Abandon()
	}
}

// durOpenEraLocked opens a new era at the committed sequence, at failover
// and at cold restart: the serving node and every in-sync backup
// checkpoint into it at once, superseding (by generation) whatever their
// directories held, a deposed primary's orphaned tail included. It
// returns the first join's error.
func (g *Group) durOpenEraLocked() error {
	d := g.dur
	if d == nil || d.dead {
		return nil
	}
	d.pending = d.pending[:0]
	d.era++
	d.seq = g.store.Committed()
	d.lastCkpt = d.seq
	err := g.durJoinLocked(g.primary)
	for _, b := range g.backups {
		if b.state == StateInSync {
			if e := g.durJoinLocked(b.node); err == nil {
				err = e
			}
		}
	}
	return err
}

// initDurability opens the disk tier during NewGroup: it recovers every
// replica directory, seeds the serving store from the winner, re-enrolls
// or rejoins the backups against their own recovered positions, and
// opens a fresh era with a checkpoint on every member.
func (g *Group) initDurability() error {
	if !g.cfg.Durability.Enabled() {
		return nil
	}
	cfg := g.cfg.Durability.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	d := &durable{cfg: cfg, reg: g.cfg.Obs}

	// Slot 0 is the serving node, 1..B the initial backups. Extra node
	// directories left by a previous incarnation's spare enrollments
	// still participate in recovery — their state may be the freshest.
	d.slots = 1 + len(g.backups)
	if ents, err := os.ReadDir(cfg.Dir); err == nil {
		for _, e := range ents {
			var n int
			if _, err := fmt.Sscanf(e.Name(), "node-%d", &n); err == nil && n+1 > d.slots {
				d.slots = n + 1
			}
		}
	}
	for i, b := range g.backups {
		b.node.walSlot = i + 1
	}

	dbSize := g.store.DBSize()
	results := make([]*wal.Result, d.slots)
	win := -1
	var maxEra uint32
	for i := range results {
		res, err := wal.Recover(d.slotDir(i), dbSize)
		if err != nil {
			return err
		}
		results[i] = res
		d.recovery.TruncatedBytes += res.TruncatedBytes
		if g.obs != nil && res.TruncatedBytes > 0 {
			g.obs.truncBytes.Add(uint64(res.TruncatedBytes))
			g.emit(obs.EventWALTruncate, i, uint64(res.TruncatedBytes), 0)
		}
		if res.MaxEra > maxEra {
			maxEra = res.MaxEra
		}
		if !res.HadState {
			continue
		}
		if win < 0 || res.Era > results[win].Era ||
			(res.Era == results[win].Era && res.Seq > results[win].Seq) {
			win = i
		}
	}
	// durOpenEraLocked below opens the restart era above everything on
	// disk, so records from any prior incarnation can never chain past it.
	d.era = maxEra
	g.dur = d

	if win >= 0 {
		w := results[win]
		d.recovery.Recovered = true
		d.recovery.Era, d.recovery.Seq = w.Era, w.Seq
		d.recovery.SnapSeq, d.recovery.Replayed = w.SnapSeq, w.Replayed

		// Seed the serving store with the winning image and sequence.
		if err := g.store.Load(0, w.Data); err != nil {
			return err
		}
		g.store.AdoptCommitSeq(w.Seq)
		if g.redo != nil {
			// The lane NewGroup opened counts from zero: the restart era's
			// consumers start at the recovered sequence.
			if err := g.establish(); err != nil {
				return err
			}
		}
		g.primary.stamps.record(w.Seq)

		// Each backup machine restarts from its own disk: one whose
		// recovered position matches the winner provably holds the same
		// prefix and re-enrolls with a raw copy; a lagging (or corrupt)
		// one must rejoin through the chunked transfer engine.
		for i, b := range g.backups {
			res := results[i+1]
			if res.HadState && res.Era == w.Era && res.Seq == w.Seq {
				g.resyncSurvivorLocked(b)
				d.recovery.Resynced++
			} else {
				b.setState(StateGated)
				d.recovery.Rejoined++
			}
		}
		g.stampInSyncLocked()
	}

	// The serving node and the re-enrolled backups checkpoint into the
	// restart era; the lagging ones join it at their cut-over.
	if err := g.durOpenEraLocked(); err != nil {
		return err
	}
	if d.recovery.Rejoined > 0 {
		if err := g.repairAsyncLocked(); err != nil && !errors.Is(err, ErrNotRepairable) {
			return err
		}
		for len(g.jobs) > 0 {
			g.pumpRepairLocked(true)
		}
		g.drainLinkLocked()
	}
	return nil
}

// Durability returns the disk tier's current status (zero Enabled when
// the tier is off).
func (g *Group) Durability() DurabilityStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := g.dur
	if d == nil {
		return DurabilityStatus{}
	}
	st := DurabilityStatus{
		Enabled:     true,
		Dir:         d.cfg.Dir,
		Era:         d.era,
		Seq:         d.seq,
		SnapshotSeq: d.lastCkpt,
		Replicas:    d.slots,
		Recovery:    d.recovery,
	}
	if r := g.primary.wal; r != nil {
		st.DurableSeq = r.SyncedSeq()
	}
	return st
}

// PowerFail kills the whole deployment at this instant: every machine
// loses power at once. Frames of locally committed transactions were
// written to each replica's page cache but nothing past the last fsync
// is guaranteed — the scenario layer may additionally tear those bytes.
// The group is unusable afterwards; a cold restart (a fresh NewGroup
// over the same Durability.Dir) recovers the durable prefix.
func (g *Group) PowerFail() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := g.dur
	if d == nil {
		return ErrNoDurability
	}
	if d.dead {
		return ErrCrashed
	}
	if g.primary.walOpen() {
		g.primary.wal.Append(d.pending, d.seq)
	}
	d.pending = d.pending[:0]
	for r := range g.walMembers() {
		d.tails = append(d.tails, WALTail{Path: r.SegmentPath(), Synced: r.SyncedBytes()})
		r.Abandon()
	}
	d.dead = true
	if !g.crashed {
		if g.autop != nil {
			g.autop.crashedAt = g.primary.Clock.Now()
		}
		g.crashPrimaryLocked()
	}
	g.primary.lost = true
	for _, b := range g.backups {
		b.node.lost = true
		b.setState(StateCrashed)
	}
	return nil
}

// WALTails returns the live segments captured by PowerFail (nil before
// it): each path plus the offset its last fdatasync covered. Bytes past
// that offset are fair game for torn-write injection.
func (g *Group) WALTails() []WALTail {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dur == nil {
		return nil
	}
	return append([]WALTail(nil), g.dur.tails...)
}

// Close flushes and closes every WAL replica; the group's simulated
// state is untouched. A no-op without the disk tier.
func (g *Group) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := g.dur
	if d == nil || d.dead {
		return nil
	}
	g.durAppendLocked()
	var first error
	for r := range g.walMembers() {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.dead = true
	return first
}
