package placement

import (
	"fmt"
	"sort"
)

// Range maps the global offsets [Start, End) onto one shard: global
// offset o lands at local offset Local + (o - Start) on Shard. Ranges in
// a Table are sorted by Start and tile the covered span exactly.
type Range struct {
	Start, End int
	Shard      int
	Local      int
}

// Table is one immutable placement version: the routing table the
// sharded facade's hot paths consult through an atomic pointer. Epoch
// identifies the version — it advances by one at every rebalance
// cut-over, and readers compare Table pointers (not epochs) to detect a
// flip mid-operation.
type Table struct {
	// Epoch is the placement version, 1 for the construction-time layout.
	Epoch  uint64
	ranges []Range
}

// FromRanges returns a table routing through an explicit sorted tiling.
func FromRanges(epoch uint64, ranges []Range) *Table {
	if len(ranges) == 0 {
		panic("placement: empty range table")
	}
	for i, r := range ranges {
		if r.End <= r.Start {
			panic(fmt.Sprintf("placement: empty range %+v", r))
		}
		if i > 0 && ranges[i-1].End != r.Start {
			panic(fmt.Sprintf("placement: gap between %+v and %+v", ranges[i-1], r))
		}
	}
	return &Table{Epoch: epoch, ranges: ranges}
}

// Locate routes one global offset: the owning shard, the local offset on
// that shard, and run — the count of bytes from off (inclusive) that stay
// contiguous on the same shard and local span, so callers split
// multi-shard operations by walking Locate over the span.
func (t *Table) Locate(off int) (shard, local, run int) {
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].End > off })
	if i == len(t.ranges) {
		// Past the covered span — only reachable through the public
		// ShardFor probe, never through bounds-checked operations: pin to
		// the last range, so the answer is a shard of the deployment.
		i--
	}
	r := t.ranges[i]
	d := off - r.Start
	if d < 0 {
		d = 0
	}
	return r.Shard, r.Local + d, r.End - off
}
