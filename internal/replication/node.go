// Package replication builds the paper's primary-backup configurations out
// of the substrate packages: a primary transaction server whose state is
// replicated to a backup node either passively (write-through doubling of
// the engine's own structures, Section 5) or actively (a redo-log circular
// buffer consumed by the backup CPU, Section 6), with crash orchestration
// and failover.
//
// State truth is end-to-end real: crash the primary at any point and the
// backup's regions contain exactly what the modelled SAN delivered; Failover
// runs the engine's recovery code over those bytes and produces a store
// serving the committed prefix (1-safe semantics).
package replication

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/memchannel"
	"repro/internal/rio"
	"repro/internal/sim"
	"repro/internal/vista"
	"repro/internal/wal"
)

// Node bundles one simulated machine: a CPU clock, a private cache
// hierarchy, an address space in reliable memory, and a Memory Channel
// attachment.
type Node struct {
	Name  string
	Clock *sim.Clock
	Cache *cache.Cache
	Space *mem.Space
	Rio   *rio.Memory
	Acc   *mem.Accessor
	MC    *memchannel.Node

	stamps commitStamps
	lost   bool // memory gone or out of reach: replace, never re-join
	// walSlot names the machine's directory under the disk tier (0 for the
	// first primary, then one per backup machine), and wal is its writer
	// there, opened at the node's first join. The node is a member of the
	// tier exactly while wal has a segment open.
	walSlot int
	wal     *wal.Replica

	// busy is the time the node has worked as an active backup, applying
	// and serving reads (its clock also travels at takeovers); mark is
	// busy at the node's first work in measured interval markAt.
	busy   sim.Clock
	mark   sim.Time
	markAt uint64
}

// walOpen reports whether the node is a member of the disk tier.
func (n *Node) walOpen() bool { return n.wal != nil && n.wal.SegmentPath() != "" }

// commitStamps records a node's mark-clock reading (see mem.DirtyLog) at each
// commit it provably held, over the last len(at) commit numbers: at the
// reading for commit c the regions its scheme syncs held exactly the state c
// left, so they can differ from it only on the pages stamped since. A primary
// records at each commit; an active backup at each record it applies in sync,
// and once more after its takeover if promoted; a passive backup, and any
// re-synced one, whenever its bytes are the serving node's and that node
// holds its last commit still (see stampInSyncLocked). A join in flight
// clears the record; a failover cuts it back to the promoted prefix.
type commitStamps struct {
	space *mem.Space // any region's dirty log reads the node's mark clock
	at    []uint64   // noReading where the node did not provably hold the commit
	// hi is the newest commit recorded, and (hi-n, hi] the commits at covers.
	hi, n uint64
}

const noReading = ^uint64(0)

// record reads the clock for commit c. Re-reading the newest commit keeps the
// older readings (they still bound everything marked since); a later commit
// keeps them too, the commits skipped holding none; an earlier one, one past
// the record's reach, or the first starts the record afresh.
func (s *commitStamps) record(c uint64) {
	w := uint64(len(s.at))
	switch {
	case s.n == 0 || c < s.hi || c-s.hi >= w:
		s.n = 1
	case c > s.hi:
		for k := s.hi + 1; k < c; k++ {
			s.at[k%w] = noReading
		}
		s.n = min(s.n+c-s.hi, w)
	}
	s.hi = c
	s.at[c%w] = s.space.ByName(vista.RegionDB).Dirty.Seq()
}

// stamp returns the reading for commit c, if one is still recorded.
func (s *commitStamps) stamp(c uint64) (uint64, bool) {
	if c > s.hi || s.hi-c >= s.n {
		return 0, false
	}
	v := s.at[c%uint64(len(s.at))]
	return v, v != noReading
}

// forget drops the commits after c: a failover chose a lineage that never
// saw them, and its own commits will reuse their sequence numbers.
func (s *commitStamps) forget(c uint64) {
	if c < s.hi {
		s.n -= min(s.n, s.hi-c)
		s.hi = c
	}
}

// NewNode constructs a node. link may be nil for a machine that never
// transmits (a passive backup's CPU, a standalone server).
func NewNode(name string, p *sim.Params, link *sim.Link) *Node {
	clk := &sim.Clock{}
	ch := cache.New(p, clk)
	sp := mem.NewSpace()
	n := &Node{
		Name:  name,
		Clock: clk,
		Cache: ch,
		Space: sp,
		Rio:   rio.New(sp),
		Acc:   mem.NewAccessor(p, clk, ch, sp),
		// 4096 commits, 15× the widest re-join gap measured (DESIGN.md,
		// repair section); a wider gap takes a full transfer.
		stamps: commitStamps{space: sp, at: make([]uint64, 4096)},
	}
	if link != nil {
		n.MC = memchannel.NewNode(p, clk, link)
		n.Acc.IO = n.MC
	}
	return n
}
