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

	stamps commitStamps // active scheme only
	lost   bool         // memory gone or out of reach: replace, never re-join

	// busy is the time the node has worked as an active backup, applying
	// and serving reads (its clock also travels at takeovers); mark is
	// busy at the node's first work in measured interval markAt.
	busy   sim.Clock
	mark   sim.Time
	markAt uint64
}

// commitStamps records a node's database dirty-log sequence at each of its
// last len(at) commits, indexed by commit sequence: at the reading for commit
// c the database held exactly the state c left, so it can differ from that
// state only on the pages stamped since. A primary records at each commit, an
// in-sync backup at each record it applies; a join in flight clears it.
type commitStamps struct {
	db *mem.Region
	at []uint64
	// hi is the newest commit recorded and n how many are, hi among them.
	hi, n uint64
}

// init allocates the record once: 4096 commits, 15× the widest re-join gap
// measured (DESIGN.md, repair section); a wider gap takes a full transfer.
func (s *commitStamps) init(db *mem.Region) {
	if s.at == nil {
		s.db, s.at = db, make([]uint64, 4096)
	}
}

// record stamps commit c with the log's current sequence. Re-reading the
// newest commit keeps the older readings (they still bound everything the log
// stamped since); any other commit that does not follow the newest one
// starts the record afresh.
func (s *commitStamps) record(c uint64) {
	if s.at == nil {
		return
	}
	switch {
	case s.n > 0 && c == s.hi+1:
		s.n = min(s.n+1, uint64(len(s.at)))
	case s.n == 0 || c != s.hi:
		s.n = 1
	}
	s.hi = c
	s.at[c%uint64(len(s.at))] = s.db.Dirty.Seq()
}

// stamp returns the log's sequence at commit c, if it is still recorded.
func (s *commitStamps) stamp(c uint64) (uint64, bool) {
	if c > s.hi || s.hi-c >= s.n {
		return 0, false
	}
	return s.at[c%uint64(len(s.at))], true
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
	}
	if link != nil {
		n.MC = memchannel.NewNode(p, clk, link)
		n.Acc.IO = n.MC
	}
	return n
}
