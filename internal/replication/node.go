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
