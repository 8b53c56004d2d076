// Package memchannel models Compaq's Memory Channel II SAN as seen from one
// node: I/O-space mappings onto remote memory, the Alpha's six 32-byte
// coalescing write buffers, and packet emission onto a FIFO link whose
// occupancy depends strongly on packet size (paper Sections 2.3 and 8).
//
// State truth is preserved: a store into a mapped address really lands in
// the remote region's backing bytes once its packet is emitted. Stores
// still sitting in a write buffer when the node crashes are lost, which is
// exactly the paper's 1-safe vulnerability window.
package memchannel

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sim"
)

// blockSize is the write-buffer/packet granule: the Alpha merges contiguous
// stores within an aligned 32-byte block and the Memory Channel interface
// converts one PCI write into one packet of at most this size.
const blockSize = 32

// Target is one receiver of a mapped window. Memory Channel pages may be
// mapped for broadcast: a single transmitted packet is delivered to every
// node that attached a receive mapping for the page, which is how one
// primary feeds K backups without K transmissions.
type Target struct {
	// Dst is the remote region written by the window, at the window's own
	// offsets.
	Dst *mem.Region
	// Down, when non-nil and true at delivery time, drops this receiver's
	// copy of the payload: the receiver is partitioned or dead. The sender
	// is unaffected (broadcast has no per-receiver flow control).
	Down *bool
}

// Mapping connects a window of this node's I/O space to its broadcast
// receivers. A window with no receiver delivers nothing, but its stores
// still leave as packets and are counted.
type Mapping struct {
	// SrcBase is the local simulated address of the window.
	SrcBase uint64
	// Size is the window length in bytes.
	Size int
	// To lists the window's receivers.
	To []Target
}

// Node is one machine's Memory Channel attachment. It implements
// mem.IOSink so an Accessor can double its writes through it.
//
// Not safe for concurrent use; each simulated node owns one Node.
type Node struct {
	params *sim.Params
	clock  *sim.Clock
	link   *sim.Link

	maps []Mapping // sorted by SrcBase

	bufs    []wbuf // allocation (FIFO) order, len <= params.WriteBuffers
	nextSeq uint64

	trace    *sim.Trace
	lastMark sim.Time

	lastDelivered sim.Time
	crashed       bool
	idleDrain     bool
	crashAfter    int64 // fail after this many packets (0 = disabled)
	emitted       int64

	// catBytes is atomic so aggregate-traffic readers (a sharded
	// front-end summing NetTraffic across running shards) can sample it
	// without synchronizing with the emitting stream.
	catBytes [mem.NumCategories]atomic.Int64
}

// wbuf is one pending 32-byte coalescing buffer.
type wbuf struct {
	block    uint64                    // aligned base address
	mask     uint32                    // valid bytes
	catMask  [mem.NumCategories]uint32 // valid bytes by category: they partition mask
	openedAt sim.Time
	data     [blockSize]byte
}

// NewNode returns a node that emits packets onto link and charges stalls to
// clock. The link may be shared with other nodes (SMP experiments) only via
// trace replay; live submission requires exclusive use.
func NewNode(p *sim.Params, clock *sim.Clock, link *sim.Link) *Node {
	return &Node{params: p, clock: clock, link: link}
}

// Map adds an I/O-space window. Windows must not overlap.
func (n *Node) Map(m Mapping) error {
	for _, t := range m.To {
		if err := m.check(t); err != nil {
			return err
		}
	}
	for _, o := range n.maps {
		if m.SrcBase < o.SrcBase+uint64(o.Size) && o.SrcBase < m.SrcBase+uint64(m.Size) {
			return fmt.Errorf("memchannel: mapping %#x overlaps existing window %#x", m.SrcBase, o.SrcBase)
		}
	}
	n.maps = append(n.maps, m)
	sort.Slice(n.maps, func(i, j int) bool { return n.maps[i].SrcBase < n.maps[j].SrcBase })
	return nil
}

// check refuses a receiver that the window could not write whole.
func (m *Mapping) check(t Target) error {
	if t.Dst == nil {
		return fmt.Errorf("memchannel: window %#x has a nil receiver", m.SrcBase)
	}
	if m.Size > t.Dst.Size() {
		return fmt.Errorf("memchannel: window %#x overruns receiver %q", m.SrcBase, t.Dst.Name)
	}
	return nil
}

// AddTarget enrolls a broadcast receiver on the already-mapped window at
// srcBase — how an online repair attaches a joining backup to the live
// replication stream without rewiring (and thereby disturbing) the serving
// node's attachment.
func (n *Node) AddTarget(srcBase uint64, t Target) error {
	for i := range n.maps {
		if m := &n.maps[i]; m.SrcBase == srcBase {
			if err := m.check(t); err != nil {
				return err
			}
			m.To = append(m.To, t)
			return nil
		}
	}
	return fmt.Errorf("memchannel: no mapped window at %#x", srcBase)
}

// RemoveTargets detaches every receiver gated by down from all windows —
// the counterpart of AddTarget, used when a dead backup is dropped so its
// regions are not pinned (and iterated) by the live mappings forever.
func (n *Node) RemoveTargets(down *bool) {
	for i := range n.maps {
		n.maps[i].To = slices.DeleteFunc(n.maps[i].To, func(t Target) bool { return t.Down == down })
	}
}

// EmitBulk charges a bulk background transfer (the chunked state copy of an
// online repair) to the SAN: the bytes occupy the link like any other
// traffic and are accounted under cat, but the submitting CPU — the repair
// copier, not the transaction stream — is never stalled. Returns the
// delivery time of the last byte.
func (n *Node) EmitBulk(now sim.Time, bytes int, cat mem.Category) sim.Time {
	if n.crashed || bytes <= 0 {
		return now
	}
	at := n.link.SubmitBulk(now, bytes)
	n.catBytes[cat].Add(int64(bytes))
	return at
}

// AccountControl tallies control-plane bytes that travel the reverse
// direction (heartbeat acknowledgements crossing back from the replicas).
// The model serializes only this node's transmit direction, so reverse
// traffic is accounted under mem.CatControl without occupying the link.
// Only the acks of heartbeat rounds actually exchanged come here: commit
// acks and consumer-pointer write-backs only time sim.Ring, uncounted, until
// ROADMAP item 25 decides otherwise (it moves every gated bytes figure).
func (n *Node) AccountControl(bytes int) {
	if bytes > 0 {
		n.catBytes[mem.CatControl].Add(int64(bytes))
	}
}

// PendingBufs reports how many write buffers still hold undelivered bytes
// (the 1-safe window); zero means everything stored so far is on the wire.
func (n *Node) PendingBufs() int { return len(n.bufs) }

// SetTrace attaches a trace recorder (SMP capture runs); nil detaches.
func (n *Node) SetTrace(t *sim.Trace) {
	n.trace = t
	n.lastMark = n.clock.Now()
}

// StoreIO implements mem.IOSink: the I/O-space half of a doubled write.
func (n *Node) StoreIO(addr uint64, src []byte, cat mem.Category) {
	if n.crashed {
		return
	}
	n.drainStale()
	for len(src) > 0 {
		block := addr &^ (blockSize - 1)
		off := int(addr - block)
		cnt := blockSize - off
		if cnt > len(src) {
			cnt = len(src)
		}
		n.storeBlock(block, off, src[:cnt], cat)
		addr += uint64(cnt)
		src = src[cnt:]
	}
}

// storeBlock merges one within-block store into the coalescing buffers.
func (n *Node) storeBlock(block uint64, off int, src []byte, cat mem.Category) {
	i := len(n.bufs) - 1
	for i >= 0 && n.bufs[i].block != block {
		i--
	}
	if i < 0 {
		if len(n.bufs) >= n.params.WriteBuffers {
			// Buffer pressure: the oldest (partial) buffer is forcibly
			// evicted, and the CPU waits for the bus to accept it.
			n.emit(0, true)
		}
		n.bufs = append(n.bufs, wbuf{block: block, openedAt: n.clock.Now()})
		i = len(n.bufs) - 1
	}
	b := &n.bufs[i]
	copy(b.data[off:], src)
	// The store's bytes leave whatever category they were under (with
	// len(src) == 32 the shift wraps to all ones).
	stored := (uint32(1)<<len(src) - 1) << off
	for c := range b.catMask {
		b.catMask[c] &^= stored
	}
	b.catMask[cat] |= stored
	b.mask |= stored
	if b.mask == 1<<blockSize-1 {
		// A naturally filled buffer retires asynchronously through the
		// posted-write pipeline.
		n.emit(i, false)
	}
}

// emit sends the buffer at index i and drops it from the FIFO.
func (n *Node) emit(i int, sync bool) {
	n.emitBuf(&n.bufs[i], sync)
	n.bufs = slices.Delete(n.bufs, i, i+1)
}

// emitBuf turns one buffer into a SAN packet: it charges the link, applies
// the payload to the remote region (posted writes always complete), and
// accounts the bytes per category.
func (n *Node) emitBuf(b *wbuf, sync bool) {
	if n.crashAfter > 0 && n.emitted >= n.crashAfter {
		// Injected mid-stream failure: from the backup's perspective the
		// primary died here; this and all later packets are lost.
		n.crashed = true
	}
	if n.crashed {
		return
	}
	size := bits.OnesCount32(b.mask)
	n.emitted++
	// A buffer whose payload exceeds the SAN's packet cap leaves as
	// several packets (the stock Memory Channel II cap equals the
	// buffer size, so this splits only in ablation configurations).
	for sent := 0; sent < size; {
		part := size - sent
		if part > n.params.MaxPacket {
			part = n.params.MaxPacket
		}
		now := n.clock.Now()
		if n.trace != nil {
			n.trace.AddCompute(sim.Dur(now - n.lastMark))
			n.trace.AddPacket(part, sync)
		}
		readyAt, deliveredAt := n.link.Submit(now, part, sync)
		n.clock.AdvanceTo(readyAt)
		if n.trace != nil {
			// Checkpoint excludes the link stall (replay recomputes it
			// under contention) but precedes the drain charge below, so
			// that processor-local cost lands in the next compute
			// segment and replays carry it.
			n.lastMark = n.clock.Now()
		}
		if part < blockSize && !n.idleDrain {
			// Partial-line drain: the bridge issues discrete cycles
			// per valid byte instead of one burst, stealing bus time
			// from the processor. Full 32-byte lines burst for free —
			// the heart of the paper's locality argument.
			n.clock.Advance(sim.Dur(part) * n.params.PartialDrainPerByte)
		}
		n.lastDelivered = deliveredAt
		sent += part
	}

	n.apply(b)
	for c, m := range b.catMask {
		if m != 0 {
			n.catBytes[c].Add(int64(bits.OnesCount32(m)))
		}
	}
}

// apply writes each run of the buffer's valid bytes to the receivers.
func (n *Node) apply(b *wbuf) {
	for m := b.mask; m != 0; {
		i := bits.TrailingZeros32(m)
		j := i + bits.TrailingZeros32(^(m >> i))
		n.applyRange(b.block+uint64(i), b.data[i:j])
		m &^= uint32(1)<<j - 1
	}
}

func (n *Node) applyRange(addr uint64, data []byte) {
	m := n.mapping(addr, len(data))
	if m == nil {
		panic(fmt.Sprintf("memchannel: I/O store [%#x,+%d) hits no mapping", addr, len(data)))
	}
	for _, t := range m.To {
		if t.Down == nil || !*t.Down {
			t.Dst.WriteRaw(int(addr-m.SrcBase), data)
		}
	}
}

func (n *Node) mapping(addr uint64, sz int) *Mapping {
	i := sort.Search(len(n.maps), func(i int) bool {
		return n.maps[i].SrcBase+uint64(n.maps[i].Size) > addr
	})
	if i < len(n.maps) {
		m := &n.maps[i]
		if addr >= m.SrcBase && addr+uint64(sz) <= m.SrcBase+uint64(m.Size) {
			return m
		}
	}
	return nil
}

// Fence implements mem.IOSink: drain all buffers in allocation order. A
// memory barrier pushes the buffers into the posted-write queue — it does
// not wait for SAN serialization, so fenced sequential streams (the active
// backup's redo records) keep their asynchronous retirement; only queue
// overflow stalls the CPU.
func (n *Node) Fence() {
	for len(n.bufs) > 0 {
		n.emit(0, false)
	}
}

// drainStale flushes buffers that have been open longer than DrainAge:
// the bus has long since gone idle, so real hardware would have retired
// them in the background.
func (n *Node) drainStale() {
	if n.params.DrainAge <= 0 {
		return
	}
	cutoff := n.clock.Now() - sim.Time(n.params.DrainAge)
	for len(n.bufs) > 0 && n.bufs[0].openedAt <= cutoff {
		n.emit(0, false)
	}
}

// Crash drops the contents of the write buffers — stores that had not yet
// been flushed to the bus are lost, exactly the paper's 1-safe window.
// Buffers older than DrainAge left the CPU before the failure instant and
// are delivered first; only genuinely in-flight bytes die with the node.
func (n *Node) Crash() {
	n.drainStale()
	n.bufs = nil
	n.crashed = true
}

// Idle lets simulated time pass with the CPU quiescent; background
// draining retires every pending write buffer without charging the (idle)
// processor.
func (n *Node) Idle(d sim.Dur) {
	n.clock.Advance(d)
	n.idleDrain = true
	for len(n.bufs) > 0 {
		n.emit(0, false)
	}
	n.idleDrain = false
}

// Crashed reports whether the node has failed (explicitly or by injection).
func (n *Node) Crashed() bool { return n.crashed }

// CrashAfterPackets schedules an injected failure: the node dies just
// before emitting its (k+1)-th packet from now, freezing the backup's view
// at an arbitrary packet boundary — possibly in the middle of a commit.
// Zero disables injection.
func (n *Node) CrashAfterPackets(k int64) {
	n.emitted = 0
	n.crashAfter = k
}

// LastDelivered returns the delivery time of the most recently emitted
// packet (used to couple the redo ring's consumer model to the link).
func (n *Node) LastDelivered() sim.Time { return n.lastDelivered }

// RingReserve stalls the producer until the redo ring has room, recording
// the event for replay.
func (n *Node) RingReserve(r *sim.Ring, bytes int) {
	if n.trace != nil {
		now := n.clock.Now()
		n.trace.AddCompute(sim.Dur(now - n.lastMark))
		n.trace.AddReserve(bytes)
	}
	n.clock.AdvanceTo(r.Reserve(n.clock.Now(), bytes))
	if n.trace != nil {
		n.lastMark = n.clock.Now()
	}
}

// RingPublish hands a fully-written record to the consumer model.
func (n *Node) RingPublish(r *sim.Ring, bytes int) {
	if n.trace != nil {
		now := n.clock.Now()
		n.trace.AddCompute(sim.Dur(now - n.lastMark))
		n.trace.AddPublish(bytes)
		n.lastMark = now
	}
	r.Publish(n.lastDelivered, bytes)
}

// CategoryBytes returns the bytes actually sent over the SAN, by category.
// Because accounting happens at packet emission, bytes overwritten while
// still coalescing in a buffer are counted once, like on the real wire.
// Safe for concurrent use with the emitting stream.
func (n *Node) CategoryBytes() map[mem.Category]int64 {
	out := make(map[mem.Category]int64, 5)
	for c := mem.CatModified; c <= mem.CatControl; c++ {
		out[c] = n.catBytes[c].Load()
	}
	return out
}

// ResetStats clears the per-category counters (measurement phases).
func (n *Node) ResetStats() {
	for i := range n.catBytes {
		n.catBytes[i].Store(0)
	}
}

var _ mem.IOSink = (*Node)(nil)
