// Package mem provides the simulated physical address space shared by the
// transaction engines and the replication machinery: named regions backed by
// host memory paged on first write, and an instrumented Accessor that
// charges every load/store/copy/compare to the owning stream's simulated
// clock and cache model, and doubles writes to write-through regions into
// the SAN (paper Section 3: "double writes are used to propagate writes to
// the backup").
package mem

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
)

// pageSize is the granule Pages counts in: a host page, and the dirty
// tracking page of the engine's regions.
const pageSize = 4096

// Backing is the host storage behind a region: memory that reads as zero
// until written, like a fresh machine's. On unix it is one anonymous mapping
// outside the Go heap, paged in by the kernel on first write, so a node holds
// only the memory it wrote and the collector never counts it; race builds
// keep it on the heap (see alloc). Out-of-range accesses panic, as a wild
// pointer faults on the modelled hardware. The cost model never reads it.
//
// A cleanup unmaps the memory once the Backing is unreachable, so the
// Backing never hands out a slice of its memory, only copies.
type Backing struct {
	mem     []byte
	written []uint64 // bit p set once page p has been written
}

func newBacking(n int) (*Backing, error) {
	m, err := alloc(n)
	if err != nil {
		return nil, fmt.Errorf("mem: mapping %d bytes: %w", n, err)
	}
	b := &Backing{mem: m, written: make([]uint64, (n+64*pageSize-1)/(64*pageSize))}
	if offHeap {
		runtime.AddCleanup(b, free, m)
	}
	return b, nil
}

// Pages returns the number of 4 KiB pages written, the host memory the
// backing holds. It counts writes, not resident pages: a read of an unwritten
// mapped page maps the kernel's zero page, which holds no memory.
func (b *Backing) Pages() int {
	n := 0
	for _, w := range b.written {
		n += bits.OnesCount64(w)
	}
	return n
}

// readAt copies len(dst) bytes at off into dst. The slice expression is the
// bounds check.
func (b *Backing) readAt(off int, dst []byte) {
	copy(dst, b.mem[off:off+len(dst)])
	runtime.KeepAlive(b) // the cleanup must not unmap mid-copy
}

// writeAt copies src into the backing at off and marks the pages it touches
// written.
func (b *Backing) writeAt(off int, src []byte) {
	copy(b.mem[off:off+len(src)], src)
	for p := off / pageSize; p < (off+len(src)+pageSize-1)/pageSize; p++ {
		b.written[p/64] |= 1 << (p % 64)
	}
	runtime.KeepAlive(b)
}

// Region is a named, contiguous range of the simulated address space.
type Region struct {
	// Name identifies the region ("db", "mirror", "undolog", ...).
	Name string
	// Base is the region's simulated base address. Regions are placed at
	// cache-size-aligned bases so that, e.g., database and mirror lines
	// conflict in the direct-mapped board cache exactly as two 50 MB
	// structures would on the real machine.
	Base uint64
	// WriteThrough marks the region as mapped into Memory Channel space:
	// every store is doubled onto the SAN.
	WriteThrough bool
	// IOOnly marks a region that exists only in I/O space on this node
	// (the active backup's redo ring as seen by the primary): stores are
	// not applied locally, so its backing holds no memory.
	IOOnly bool
	// Dirty, when non-nil, records every write to the region at page
	// granularity so a re-enrolling replica can ship only the pages that
	// changed while it was away (see DirtyLog).
	Dirty *DirtyLog

	backing *Backing
}

// NewRegion returns a region of size bytes that reads as zero and holds no
// host memory until written. Its error is the host's refusal to map the
// memory.
func NewRegion(name string, base uint64, size int) (*Region, error) {
	b, err := newBacking(size)
	if err != nil {
		return nil, err
	}
	return &Region{Name: name, Base: base, backing: b}, nil
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return len(r.backing.mem) }

// End returns the first simulated address past the region.
func (r *Region) End() uint64 { return r.Base + uint64(r.Size()) }

// Contains reports whether [addr, addr+n) lies inside the region.
func (r *Region) Contains(addr uint64, n int) bool {
	return addr >= r.Base && addr+uint64(n) <= r.End()
}

// ReadRaw reads bytes without charging simulated time (initialization,
// oracle checks, recovery-side inspection).
func (r *Region) ReadRaw(off int, dst []byte) { r.backing.readAt(off, dst) }

// WriteRaw writes bytes without charging simulated time. Every mutation —
// charged accessor stores, replication deliveries, recovery rewrites —
// lands here, so this is the one choke point where dirty tracking sees the
// whole write stream.
func (r *Region) WriteRaw(off int, src []byte) {
	if r.Dirty != nil {
		r.Dirty.Mark(off, len(src))
	}
	r.backing.writeAt(off, src)
}

// Release returns the region to a fresh machine's state: it reads zero, holds
// no host memory, and its dirty log, if any, has marked nothing (on the same
// clock). On an error (the host refused a fresh mapping) it is unchanged.
func (r *Region) Release() error {
	b, err := newBacking(r.Size())
	if err != nil {
		return err
	}
	r.backing = b
	if r.Dirty != nil {
		clear(r.Dirty.pages)
	}
	return nil
}

// Backing exposes the region's host storage, for footprint checks.
func (r *Region) Backing() *Backing { return r.backing }

// Space is one node's simulated address space: a set of non-overlapping
// regions, looked up by address or name.
type Space struct {
	regions []*Region // sorted by Base
	byName  map[string]*Region
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{byName: make(map[string]*Region)}
}

// Add inserts a region, rejecting overlaps and duplicate names.
func (s *Space) Add(r *Region) error {
	if _, dup := s.byName[r.Name]; dup {
		return fmt.Errorf("mem: duplicate region %q", r.Name)
	}
	for _, o := range s.regions {
		if r.Base < o.End() && o.Base < r.End() {
			return fmt.Errorf("mem: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				r.Name, r.Base, r.End(), o.Name, o.Base, o.End())
		}
	}
	s.regions = append(s.regions, r)
	sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Base < s.regions[j].Base })
	s.byName[r.Name] = r
	return nil
}

// Lookup returns the region containing [addr, addr+n), or nil.
func (s *Space) Lookup(addr uint64, n int) *Region {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].End() > addr })
	if i < len(s.regions) && s.regions[i].Contains(addr, n) {
		return s.regions[i]
	}
	return nil
}

// ByName returns the named region, or nil.
func (s *Space) ByName(name string) *Region { return s.byName[name] }

// Regions returns the regions in address order (shared slice; callers must
// not modify it).
func (s *Space) Regions() []*Region { return s.regions }
