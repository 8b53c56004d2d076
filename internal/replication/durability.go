// Durability tier: the per-replica disk under the replicated memory.
//
// The paper's clusters survive single-machine faults through replication
// alone — a full-cluster power loss loses everything, because every copy
// lives in (battery-backed, but finite) RAM. This file adds the missing
// tier: each replica owns an append-only redo WAL (internal/wal) that
// mirrors the commit stream, plus periodic snapshot/checkpoint files, on
// its own directory of the host filesystem.
//
// Cost model: the WAL piggybacks on group commit. Commit frames are
// encoded once per transaction (from the vista.Sink hooks, under the
// group mutex) into a shared pending buffer; the buffer is appended to
// every in-sync replica's segment at each batch flush, and the fdatasync
// is paid once per flush — never per
// transaction. The disk tier is host-side bookkeeping: it charges no
// simulated time, and with Durability off the group is bit-for-bit the
// PR 1–6 simulation.
//
// Consistency across faults:
//
//   - Era fencing. Every failover and every cold restart opens a new era;
//     each surviving member checkpoints into it immediately. A deposed
//     primary's orphaned tail (commits the promoted lineage never saw)
//     stays on its disk under the old era and older generations, where
//     the recovery chain rule fences it out.
//   - Membership. A replica's WAL receives appends only while it is
//     InSync; a joiner is activated by a fresh checkpoint at cut-over, so
//     its first segment's base equals the stream position it provably
//     holds. Paused and crashed replicas are deactivated (their directory
//     freezes at the departure prefix).
//   - Cold restart. Recovery loads every replica directory, picks the
//     winner by (era, seq), seeds the serving store with its image and
//     commit sequence, re-enrolls matching replicas on the spot, and
//     rejoins lagging ones through the PR 3 chunked-transfer engine.
package replication

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/vista"
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

// durable is the group's durability engine. It implements vista.Sink to
// observe the serving store's writes and commits; every method runs
// under the group mutex.
type durable struct {
	cfg DurabilityConfig

	// reps and active are indexed by replica slot (backup.walIdx; the
	// serving node is primarySlot). A slot is active while its replica
	// is InSync and checkpointed into the current era.
	reps        []*wal.Replica
	active      []bool
	primarySlot int

	era uint32
	seq uint64

	// Per-transaction staging from the sink hooks.
	offs []int
	lens []int
	data []byte

	// pending holds the frames committed since the last batch flush;
	// one flush appends it to every active replica in a single write.
	pending []byte

	lastCkpt uint64
	img      []byte

	// dead marks a power-failed (or closed) tier: every hook is inert.
	dead bool

	// reg is the deployment's metrics registry (nil when uninstrumented);
	// lazily opened replicas attach to it.
	reg *obs.Registry

	// tails records each replica's live segment at the PowerFail instant.
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

var _ vista.Sink = (*durable)(nil)

func (d *durable) slotDir(slot int) string {
	return filepath.Join(d.cfg.Dir, fmt.Sprintf("node-%03d", slot))
}

// newSlot allocates a replica slot (a fresh enrollment's directory).
func (d *durable) newSlot() int {
	d.reps = append(d.reps, nil)
	d.active = append(d.active, false)
	return len(d.reps) - 1
}

// replica lazily opens slot's WAL writer.
func (d *durable) replica(slot int) (*wal.Replica, error) {
	if d.reps[slot] == nil {
		r, err := wal.NewReplica(d.slotDir(slot))
		if err != nil {
			return nil, err
		}
		r.Attach(d.reg, slot)
		d.reps[slot] = r
	}
	return d.reps[slot], nil
}

// SinkWrite stages one transactional write for the commit frame.
func (d *durable) SinkWrite(off int, src []byte) {
	if d.dead {
		return
	}
	d.offs = append(d.offs, off)
	d.lens = append(d.lens, len(src))
	d.data = append(d.data, src...)
}

// SinkLoad records a non-transactional bulk load as a RecLoad frame at
// the current sequence.
func (d *durable) SinkLoad(off int, data []byte) {
	if d.dead {
		return
	}
	d.pending = wal.AppendLoadFrame(d.pending, d.era, d.seq, off, data)
}

// SinkCommit seals the staged writes into one commit frame. Encoding
// happens here, once per transaction; the disk write and fsync wait for
// the batch flush.
func (d *durable) SinkCommit(seq uint64) {
	if !d.dead && seq > d.seq {
		d.pending = wal.AppendCommitFrame(d.pending, d.era, seq, d.offs, d.lens, d.data)
		d.seq = seq
	}
	d.resetStaging()
}

// SinkAbort drops the staged writes.
func (d *durable) SinkAbort() { d.resetStaging() }

func (d *durable) resetStaging() {
	d.offs, d.lens, d.data = d.offs[:0], d.lens[:0], d.data[:0]
}

// appendPending hands the sealed frames to every active replica's
// segment buffer (no disk I/O yet).
func (d *durable) appendPending() {
	if len(d.pending) == 0 {
		return
	}
	for slot, rep := range d.reps {
		if d.active[slot] && rep != nil {
			rep.Append(d.pending, d.seq)
		}
	}
	d.pending = d.pending[:0]
}

// syncActive pays the piggybacked fdatasync on every active replica.
func (d *durable) syncActive() error {
	for slot, rep := range d.reps {
		if d.active[slot] && rep != nil {
			if err := rep.Sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// durFlushLocked is the group-commit piggyback: called once per batch
// flush (and once per commit in the unbatched modes), it ships the
// pending frames and syncs them.
func (g *Group) durFlushLocked() error {
	d := g.dur
	if d == nil || d.dead {
		return nil
	}
	d.appendPending()
	if err := d.syncActive(); err != nil {
		return err
	}
	return g.durMaybeCheckpointLocked()
}

// durMaybeCheckpointLocked runs a checkpoint when one is due and the
// store is between transactions (the image is committed-consistent).
func (g *Group) durMaybeCheckpointLocked() error {
	d := g.dur
	if d == nil || d.dead {
		return nil
	}
	if d.seq-d.lastCkpt >= uint64(d.cfg.SnapshotEvery) && !g.store.InTx() {
		return g.durCheckpointAllLocked()
	}
	return nil
}

// durCheckpointAllLocked snapshots the committed image onto every active
// replica and rotates their segments.
func (g *Group) durCheckpointAllLocked() error {
	d := g.dur
	d.appendPending()
	img := d.image(g)
	for slot, rep := range d.reps {
		if d.active[slot] && rep != nil {
			if err := rep.Checkpoint(d.era, d.seq, img); err != nil {
				return err
			}
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

// durActivateSlotLocked enrolls one replica slot into the current era:
// a fresh checkpoint at the current sequence seeds its directory, so its
// first segment's base is exactly the stream position it holds.
func (g *Group) durActivateSlotLocked(slot int) error {
	d := g.dur
	if d.active[slot] {
		return nil
	}
	rep, err := d.replica(slot)
	if err != nil {
		return err
	}
	d.appendPending()
	if err := rep.Checkpoint(d.era, d.seq, d.image(g)); err != nil {
		return err
	}
	d.active[slot] = true
	return nil
}

// durActivateBackupLocked is the cut-over hook: a joiner that just
// reached InSync starts mirroring the stream from a fresh checkpoint.
// A disk error leaves the slot inactive (the replica simply does not
// participate in durability) rather than failing the join.
func (g *Group) durActivateBackupLocked(b *backup) {
	d := g.dur
	if d == nil || d.dead {
		return
	}
	_ = g.durActivateSlotLocked(b.walIdx)
}

// durDropBackupLocked deactivates a departing backup's slot: cleanly
// (sync and close — a pause keeps its durable prefix exact) or abandoned
// (a crash leaves the unsynced tail to the page cache).
func (g *Group) durDropBackupLocked(b *backup, clean bool) {
	d := g.dur
	if d == nil || d.dead {
		return
	}
	slot := b.walIdx
	if slot < 0 || slot >= len(d.reps) || !d.active[slot] {
		return
	}
	d.active[slot] = false
	if rep := d.reps[slot]; rep != nil {
		if clean {
			_ = rep.Close()
		} else {
			rep.Abandon()
		}
	}
}

// durCrashLocked is the serving machine's death: the frames of locally
// committed transactions reach its page cache (they were written, not
// synced) and the replica is abandoned — bytes past the synced offset
// are at the mercy of the power loss.
func (g *Group) durCrashLocked() {
	d := g.dur
	if d == nil || d.dead {
		return
	}
	if d.active[d.primarySlot] {
		if rep := d.reps[d.primarySlot]; rep != nil {
			rep.Append(d.pending, d.seq)
			rep.Abandon()
		}
	}
	d.active[d.primarySlot] = false
	d.pending = d.pending[:0]
	d.resetStaging()
}

// durFailoverLocked re-anchors the tier on the promoted survivor: a new
// era opens and every surviving member checkpoints into it immediately,
// superseding (by generation) whatever its directory held — including
// any orphaned old-primary tail beyond the promoted lineage.
func (g *Group) durFailoverLocked(promoted *backup) {
	d := g.dur
	if d == nil || d.dead {
		return
	}
	d.pending = d.pending[:0]
	d.resetStaging()
	for slot := range d.active {
		d.active[slot] = false
	}
	d.primarySlot = promoted.walIdx
	d.era++
	d.seq = g.store.Committed()
	_ = g.durOpenEraLocked()
}

// durOpenEraLocked attaches the sink and checkpoints the serving slot and
// every in-sync backup's into the current era at the current sequence,
// returning the first error.
func (g *Group) durOpenEraLocked() error {
	d := g.dur
	g.store.SetSink(d)
	d.lastCkpt = d.seq
	err := g.durActivateSlotLocked(d.primarySlot)
	for _, b := range g.backups {
		if b.state == StateInSync {
			if e := g.durActivateSlotLocked(b.walIdx); err == nil {
				err = e
			}
		}
	}
	return err
}

// durSettleLocked is Settle's quiet-period hook: outstanding frames
// become durable and a due checkpoint runs.
func (g *Group) durSettleLocked() {
	d := g.dur
	if d == nil || d.dead {
		return
	}
	d.appendPending()
	_ = d.syncActive()
	_ = g.durMaybeCheckpointLocked()
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
	slots := 1 + len(g.backups)
	if ents, err := os.ReadDir(cfg.Dir); err == nil {
		for _, e := range ents {
			var n int
			if _, err := fmt.Sscanf(e.Name(), "node-%d", &n); err == nil && n+1 > slots {
				slots = n + 1
			}
		}
	}
	for i := 0; i < slots; i++ {
		d.newSlot()
	}
	for i, b := range g.backups {
		b.walIdx = i + 1
	}

	dbSize := g.store.DBSize()
	results := make([]*wal.Result, slots)
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
	// Every cold restart opens a fresh era above everything on disk, so
	// records from any prior incarnation can never chain past it.
	d.era = maxEra + 1
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
		d.seq = w.Seq
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
		lagging := 0
		for i, b := range g.backups {
			res := results[i+1]
			if res.HadState && res.Era == w.Era && res.Seq == w.Seq {
				g.resyncSurvivorLocked(b)
				d.recovery.Resynced++
			} else {
				b.setState(StateGated)
				lagging++
			}
		}
		g.stampInSyncLocked()
		if lagging > 0 {
			d.recovery.Rejoined = lagging
			if err := g.repairAsyncLocked(); err != nil && !errors.Is(err, ErrNotRepairable) {
				return err
			}
			for len(g.jobs) > 0 {
				g.pumpRepairLocked(true)
			}
			g.drainLinkLocked()
		}
	}

	// Open the restart era: every in-sync member checkpoints at the
	// current sequence (cut-over hooks above already activated the
	// rejoined ones).
	return g.durOpenEraLocked()
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
		Replicas:    len(d.reps),
		Recovery:    d.recovery,
	}
	if rep := d.reps[d.primarySlot]; rep != nil {
		st.DurableSeq = rep.SyncedSeq()
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
	if d.active[d.primarySlot] {
		if rep := d.reps[d.primarySlot]; rep != nil {
			rep.Append(d.pending, d.seq)
		}
	}
	d.pending = d.pending[:0]
	for slot, rep := range d.reps {
		if rep != nil {
			if p := rep.SegmentPath(); p != "" {
				d.tails = append(d.tails, WALTail{Path: p, Synced: rep.SyncedBytes()})
			}
			rep.Abandon()
		}
		d.active[slot] = false
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

// WALDirs returns each replica slot's durability directory (nil when the
// tier is off) — the scenario layer's handle for tail corruption.
func (g *Group) WALDirs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := g.dur
	if d == nil {
		return nil
	}
	dirs := make([]string, len(d.reps))
	for i := range d.reps {
		dirs[i] = d.slotDir(i)
	}
	return dirs
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
	d.appendPending()
	var first error
	for slot, rep := range d.reps {
		if rep != nil {
			if err := rep.Close(); err != nil && first == nil {
				first = err
			}
		}
		d.active[slot] = false
	}
	d.dead = true
	return first
}
