package replication

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vista"
)

// Active-backup region names (appended after the vista layout).
const (
	regionRedoRing = "redoring"
	regionRingCtl  = "ringctl"
)

// wrapMarker in a record's nWrites field means "skip to the start of the
// ring": the producer leaves it when a record would straddle the wrap.
const wrapMarker = 0xFFFFFFFF

// redoChannel is the active group's shipping lane (paper Section 6.1): a
// circular buffer in Memory Channel space written by the primary and
// consumed by each backup CPU, with a producer pointer flowing forward and
// (modelled by one sim.Ring per backup) consumer pointers flowing back.
// The primary transmits each record once; the SAN's broadcast mappings
// deliver it to every backup's ring copy.
//
// Record layout (the record as a whole is 8-byte aligned; entries are
// packed tight so typical records fill whole 32-byte blocks — redo-log
// compactness is what lets the active scheme ride the SAN's full-packet
// bandwidth in the paper's Section 8 experiment):
//
//	[+0] nWrites (u32)   wrapMarker = skip-to-ring-start marker
//	[+4] size    (u32)   total record bytes including header and pad
//	then per write: off (u32), len (u16), data (unpadded)
type redoChannel struct {
	g *Group

	ringIO *mem.Region // primary-side I/O-space window
	ctlIO  *mem.Region // primary-side pointer window

	ringSize  int
	prodTotal uint64 // bytes produced (monotonic, includes pads)
	// pubTotal is the producer-pointer value the backups have been told:
	// with group commit enabled it trails prodTotal by the open batch and
	// catches up at each flush.
	pubTotal uint64

	// Reusable scratch for the zero-alloc commit/apply path. Stack arrays
	// would escape through the IOSink interface and charge the
	// allocator per record; the channel is single-stream under the group
	// mutex, so shared buffers are safe.
	hdrBuf   [8]byte
	ptrBuf   [8]byte
	applyBuf []byte // one whole record, at most the ring's size
}

// establish opens an era of the active scheme on whichever node now serves:
// at construction, on the survivor a failover promoted, and over the state a
// cold restart recovered. The engine's own structures stay local — the
// active scheme replicates nothing but the redo log — and the node's copy of
// the ring and pointer word (a promoted backup's consumer copy, reused)
// becomes the I/O-only producer window, broadcast onto every backup. The
// byte stream restarts at zero while the commit sequence carries on from the
// store's committed count. With no backup left the window maps nowhere: the
// node ships nothing until RepairAsync attaches a joiner (see attachLocked).
func (g *Group) establish() error {
	p := g.primary
	for _, r := range p.Space.Regions() {
		r.WriteThrough = false
	}
	ring, ctl, err := g.laneRegions(p)
	if err != nil {
		return err
	}
	ring.IOOnly, ctl.IOOnly = true, true
	g.redo = &redoChannel{g: g, ringIO: ring, ctlIO: ctl, ringSize: ring.Size()}
	for _, b := range g.backups {
		if err := g.redo.attach(b); err != nil {
			return err
		}
	}
	return g.attachLocked()
}

// laneRegions returns n's copy of the redo ring and of the pointer word,
// placing them past the engine's regions on a node that has none yet.
func (g *Group) laneRegions(n *Node) (ring, ctl *mem.Region, err error) {
	if ring = n.Space.ByName(regionRedoRing); ring != nil {
		return ring, n.Space.ByName(regionRingCtl), nil
	}
	size := g.params.RingBytes
	if ring, err = mem.NewRegion(regionRedoRing, g.laneBase, size); err == nil {
		ctl, err = mem.NewRegion(regionRingCtl, g.laneBase+uint64(size)+regionBase, 64)
	}
	if err == nil {
		err = n.Space.Add(ring)
	}
	if err == nil {
		err = n.Space.Add(ctl)
	}
	return ring, ctl, err
}

// attach hands backup b the consumer end of the lane: its ring copy, a fresh
// timing model, a zeroed delivered pointer, and an applied sequence that
// starts at the store's committed count.
func (c *redoChannel) attach(b *backup) error {
	ring, ctl, err := c.g.laneRegions(b.node)
	if err != nil {
		return err
	}
	b.ring, b.bRing, b.bCtl = sim.NewRing(c.g.params, c.ringSize), ring, ctl
	c.ptrBuf = [8]byte{}
	ctl.WriteRaw(0, c.ptrBuf[:])
	b.appliedTotal, b.appliedTxns = 0, c.g.store.Committed()
	return nil
}

// maxEntryLen is the largest single redo entry (16-bit length field);
// larger application writes are staged as several entries.
const maxEntryLen = 1<<16 - 1

// ship writes t's redo record through the SAN, ahead of the local commit.
// The record is not yet visible to the backups: the producer pointer that
// names it is published by the batch flush. The returned error is the
// acknowledgement failure, if any, of a batch ship had to seal early to
// make room.
func (c *redoChannel) ship(t *groupTx) error {
	g := c.g
	size := 8
	for _, n := range t.lens {
		size += 6 + n
	}
	size = pad8(size)

	// Reserved-but-unpublished bytes are not reclaimable: the consumer
	// only advances past published records, so an open batch that grew to
	// the ring's capacity would deadlock the reservation below. Seal the
	// batch early when this record would push the unpublished span past
	// half the ring (half, so the consumer retains room to drain while
	// the next batch fills). Large records or small rings therefore cap
	// the effective batch size instead of panicking.
	var preErr error
	if c.prodTotal != c.pubTotal &&
		int(c.prodTotal-c.pubTotal)+size+c.ringSize/8 > c.ringSize/2 {
		preErr = g.flushLocked()
	}

	// Reserve ring space, accounting for a wrap pad. Every reachable
	// backup's ring must have room: the slowest consumer back-pressures
	// the producer, exactly as its write-back pointer would.
	off := int(c.prodTotal % uint64(c.ringSize))
	pad := 0
	if off+size > c.ringSize {
		pad = c.ringSize - off
	}
	first := true
	for _, b := range g.backups {
		if !b.acking() {
			continue
		}
		if first {
			g.primary.MC.RingReserve(b.ring, size+pad)
			first = false
		} else {
			g.primary.Clock.AdvanceTo(b.ring.Reserve(g.primary.Clock.Now(), size+pad))
		}
	}

	acc := g.primary.Acc
	if pad > 0 {
		c.writeU32(acc, off, wrapMarker)
		c.writeU32(acc, off+4, uint32(pad))
		c.prodTotal += uint64(pad)
		off = 0
	}

	// The record: header, then tightly packed per-write entries. All
	// stores are sequential and gapless, so the stream coalesces into
	// full 32-byte packets (a Debit-Credit record is exactly two).
	c.writeU32(acc, off, uint32(len(t.lens)))
	c.writeU32(acc, off+4, uint32(size))
	pos := off + 8
	cursor := 0
	for i, n := range t.lens {
		binary.LittleEndian.PutUint32(c.hdrBuf[0:4], uint32(t.offs[i]))
		binary.LittleEndian.PutUint16(c.hdrBuf[4:6], uint16(n))
		acc.Write(c.ringIO.Base+uint64(pos), c.hdrBuf[:6], mem.CatMeta)
		acc.Write(c.ringIO.Base+uint64(pos+6), t.data[cursor:cursor+n], mem.CatModified)
		pos += 6 + n
		cursor += n
	}
	if tail := off + size - pos; tail > 0 {
		// Zero the alignment pad so the stream stays gapless.
		c.hdrBuf = [8]byte{}
		acc.Write(c.ringIO.Base+uint64(pos), c.hdrBuf[:tail], mem.CatMeta)
	}
	c.prodTotal += uint64(size)

	// Entries must be on the backups before the pointer names them
	// (paper Section 6.1: "only after all of the entries are written,
	// does it advance the end of buffer pointer").
	acc.Fence()

	// The local commit that follows is the 1-safe commit point: a crash
	// between it and the pointer's delivery loses this transaction on the
	// backups.
	return preErr
}

// flush publishes the producer pointer covering every record written since
// the last flush, records when its TwoSafe/QuorumSafe acknowledgement
// arrives, and lets the backups apply the delivered stream. One pointer
// packet and one ack round trip amortize over the whole batch — the
// group-commit lever.
func (c *redoChannel) flush() error {
	g := c.g
	if c.prodTotal == c.pubTotal {
		return nil
	}
	bytes := int(c.prodTotal - c.pubTotal)
	acc := g.primary.Acc

	// The pointer store needs no fence of its own: its buffer was
	// (re)allocated after the last record's fence, and both natural fills
	// and evictions leave the node in allocation order, so by the time
	// any pointer value reaches a backup, every record it names has been
	// drained by an earlier commit's fence. Letting it linger coalesces
	// consecutive flushes' pointer updates into one packet.
	acc.WriteU64(c.ctlIO.Base, c.prodTotal, mem.CatMeta)
	apply := g.params.ApplyPerRecord + sim.Dur(bytes)*g.params.ApplyPerByte // sim.Ring's
	first := true
	for _, b := range g.backups {
		if !b.acking() {
			continue
		}
		if first {
			g.primary.MC.RingPublish(b.ring, bytes)
			first = false
		} else {
			b.ring.Publish(g.primary.MC.LastDelivered()+sim.Time(b.ackLag), bytes)
		}
		g.workLocked(b.node, apply)
	}
	c.pubTotal = c.prodTotal

	var ackErr error
	if g.cfg.Safety != OneSafe {
		// Release the commit once enough backups have applied the batch
		// and their acknowledgements have crossed back. An error leaves
		// the batch committed locally, its discipline unmet.
		ackErr = g.ackLocked()
	}

	// Apply everything whose pointer actually reached the backups (under
	// injected mid-stream crashes this may lag prodTotal).
	for _, b := range g.backups {
		c.applyDelivered(b)
	}
	return ackErr
}

func (c *redoChannel) writeU32(acc *mem.Accessor, off int, v uint32) {
	acc.WriteU32(c.ringIO.Base+uint64(off), v, mem.CatMeta)
}

// deliveredPtr reads the producer pointer as backup b sees it.
func (c *redoChannel) deliveredPtr(b *backup) uint64 {
	b.bCtl.ReadRaw(0, c.ptrBuf[:])
	return binary.LittleEndian.Uint64(c.ptrBuf[:])
}

// applyDelivered advances backup b's database copy through every complete
// record the SAN has delivered to it. State-only: the backup CPU's timing
// is modelled by its sim.Ring. A paused or gated backup has a gap in its
// ring copy and stays frozen at its pre-pause prefix; a joiner applies
// from its copy-start sequence (redo records are absolute physical writes,
// so replay over the fuzzy transfer is idempotent-forward).
func (c *redoChannel) applyDelivered(b *backup) {
	if !b.receiving() {
		return
	}
	target := c.deliveredPtr(b)
	for b.appliedTotal < target {
		off := int(b.appliedTotal % uint64(c.ringSize))
		b.bRing.ReadRaw(off, c.ptrBuf[:])
		nWrites := binary.LittleEndian.Uint32(c.ptrBuf[0:4])
		size := binary.LittleEndian.Uint32(c.ptrBuf[4:8])
		if nWrites == wrapMarker {
			b.appliedTotal += uint64(size)
			continue
		}
		c.applyRecord(b, off, int(nWrites), int(size))
		b.appliedTotal += uint64(size)
		b.appliedTxns++
		if b.state == StateInSync {
			b.node.stamps.record(b.appliedTxns)
		}
	}
}

// applyRecord replays one record's writes into backup b's database, from
// one read of the whole record.
func (c *redoChannel) applyRecord(b *backup, off, nWrites, size int) {
	if cap(c.applyBuf) < size {
		c.applyBuf = make([]byte, size)
	}
	rec := c.applyBuf[:size]
	b.bRing.ReadRaw(off, rec)
	db := b.node.Space.ByName(vista.RegionDB)
	pos := 8
	for w := 0; w < nWrites; w++ {
		end := size + 1 // an entry header past the record's end overruns it
		if pos+6 <= size {
			end = pos + 6 + int(binary.LittleEndian.Uint16(rec[pos+4:]))
		}
		if end > size {
			panic(fmt.Sprintf("replication: redo record at %d overruns its size %d", off, size))
		}
		db.WriteRaw(int(binary.LittleEndian.Uint32(rec[pos:])), rec[pos+6:end])
		pos = end
	}
}

// takeover finishes consumption on the promoted backup and opens a fresh
// store over its database (paper: the active backup's copy is
// transaction-consistent, so recovery is trivial — apply complete records,
// discard the partial tail).
func (c *redoChannel) takeover(b *backup) (*vista.Store, error) {
	c.applyDelivered(b)

	// Seed the committed-transaction counter before the engine opens.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], b.appliedTxns)
	ctl := b.node.Space.ByName(vista.RegionControl)
	ctl.WriteRaw(0, buf[:])

	st, err := vista.Open(c.g.cfg.Store, b.node.Acc, b.node.Rio)
	// The control word is no region the scheme syncs: re-read the applied
	// commit past it, so the survivors re-synced behind the node stamp it.
	b.node.stamps.record(b.appliedTxns)
	return st, err
}

func pad8(n int) int { return (n + 7) &^ 7 }
