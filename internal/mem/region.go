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
	"sort"
)

// chunkSize is the host allocation granule of a Backing. It trades set-up
// allocations against slack: a populated 64 MiB node makes 16 384
// allocations at 4 KiB and 1 024 at 64 KiB, while a page written alone
// holds a whole chunk.
const chunkSize = 64 << 10

// Backing is the host storage behind a region: fixed chunks, each allocated
// on its first write, so a node holds only the memory it wrote. An unwritten
// chunk reads as zero, exactly like the zeroed memory of a fresh machine. A
// region shorter than a chunk, or its short last chunk, is sized to the
// region. Out-of-range accesses are programmer errors (panic), mirroring a
// wild pointer on the modelled hardware. The simulated cost model never
// looks at it.
type Backing struct {
	size   int
	chunks [][]byte // nil until first written
}

func newBacking(n int) *Backing {
	return &Backing{size: n, chunks: make([][]byte, (n+chunkSize-1)/chunkSize)}
}

// Chunks returns the number of chunks holding host memory.
func (b *Backing) Chunks() int {
	n := 0
	for _, c := range b.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// chunkLen returns the length of chunk c: chunkSize, or what is left of the
// region for its last chunk.
func (b *Backing) chunkLen(c int) int { return min(chunkSize, b.size-c*chunkSize) }

func (b *Backing) check(op string, off, n int) {
	if off < 0 || off+n > b.size {
		panic(fmt.Sprintf("mem: %s [%d,%d) out of range %d", op, off, off+n, b.size))
	}
}

// readAt copies len(dst) bytes at off into dst.
func (b *Backing) readAt(off int, dst []byte) {
	b.check("read", off, len(dst))
	for len(dst) > 0 {
		c, co := off/chunkSize, off%chunkSize
		n := min(b.chunkLen(c)-co, len(dst))
		if ch := b.chunks[c]; ch != nil {
			copy(dst[:n], ch[co:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+n
	}
}

// writeAt copies src into the backing at off, allocating the chunks it
// touches that hold no memory yet.
func (b *Backing) writeAt(off int, src []byte) {
	b.check("write", off, len(src))
	for len(src) > 0 {
		c, co := off/chunkSize, off%chunkSize
		if b.chunks[c] == nil {
			b.chunks[c] = make([]byte, b.chunkLen(c))
		}
		n := copy(b.chunks[c][co:], src)
		src, off = src[n:], off+n
	}
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
// host memory until written.
func NewRegion(name string, base uint64, size int) *Region {
	return &Region{Name: name, Base: base, backing: newBacking(size)}
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return r.backing.size }

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
// no host memory, and its dirty log, if any, has marked nothing.
func (r *Region) Release() {
	r.backing = newBacking(r.Size())
	if r.Dirty != nil {
		r.Dirty = NewDirtyLog(r.Size(), r.Dirty.PageSize())
	}
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
