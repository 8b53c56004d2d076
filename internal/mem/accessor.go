package mem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cache"
	"repro/internal/sim"
)

// IOSink receives the I/O-space half of doubled writes. It is implemented
// by memchannel.Node; a nil sink means the node runs standalone and
// write-through regions behave like ordinary memory.
type IOSink interface {
	// StoreIO performs an uncached store of src at the simulated address
	// addr, tagged with a traffic category for the paper's byte-
	// breakdown tables.
	StoreIO(addr uint64, src []byte, cat Category)
	// Fence drains the write buffers in allocation order (Alpha wmb),
	// establishing ordering between earlier and later stores.
	Fence()
}

// Accessor is one simulated CPU's instrumented view of its address space.
// Every method charges the owning clock for the work performed; methods
// that touch write-through regions also emit the doubled I/O-space store.
//
// An Accessor is not safe for concurrent use: one per simulated processor.
type Accessor struct {
	Params *sim.Params
	Clock  *sim.Clock
	Cache  *cache.Cache
	Space  *Space
	// IO receives doubled writes; nil when the node has no backup.
	IO IOSink

	stats      AccessStats
	scratchBuf []byte
	runBuf     []DiffRun // Diff's result, reused by the next call
	// wordBuf stages fixed-width loads and stores. Routing a stack array
	// through the IOSink interface would force a heap allocation per call;
	// the accessor is single-stream and both the backing store and the
	// sink copy the bytes before returning, so one shared buffer keeps the
	// word helpers allocation-free on the commit hot path.
	wordBuf [8]byte
}

// AccessStats counts local traffic issued through the accessor.
type AccessStats struct {
	Loads, Stores   int64
	BytesRead       int64
	BytesWritten    int64
	BytesCompared   int64
	IOStores        int64
	BytesIO         int64
	ChargedCompute  sim.Dur
	ChargedIOStores sim.Dur
}

// NewAccessor wires an accessor; cache may be shared only with the same
// stream's other accessors (there is normally exactly one).
func NewAccessor(p *sim.Params, clk *sim.Clock, ch *cache.Cache, sp *Space) *Accessor {
	return &Accessor{Params: p, Clock: clk, Cache: ch, Space: sp}
}

// Stats returns a copy of the counters.
func (a *Accessor) Stats() AccessStats { return a.stats }

// Charge advances the clock by a fixed software cost (API entry overheads
// and similar), keeping all time accounting behind one type.
func (a *Accessor) Charge(d sim.Dur) {
	a.stats.ChargedCompute += d
	a.Clock.Advance(d)
}

// region resolves the region containing [addr,addr+n) or panics: engines
// compute addresses from their own layout, so a miss is a bug, exactly
// like a stray pointer on the modelled machine.
func (a *Accessor) region(addr uint64, n int) *Region {
	r := a.Space.Lookup(addr, n)
	if r == nil {
		panic(fmt.Sprintf("mem: access [%#x,+%d) outside any region", addr, n))
	}
	return r
}

// Read loads len(dst) bytes from addr.
func (a *Accessor) Read(addr uint64, dst []byte) {
	if len(dst) == 0 {
		return
	}
	r := a.region(addr, len(dst))
	a.chargeLoad(addr, len(dst))
	r.ReadRaw(int(addr-r.Base), dst)
}

// Write stores src at addr, doubling onto the SAN when the region is
// mapped write-through.
func (a *Accessor) Write(addr uint64, src []byte, cat Category) {
	if len(src) == 0 {
		return
	}
	r := a.region(addr, len(src))
	words := Dur8(len(src))
	a.stats.Stores++
	a.stats.BytesWritten += int64(len(src))
	cost := a.Params.StoreWord * sim.Dur(words)
	a.stats.ChargedCompute += cost
	a.Clock.Advance(cost)
	if !r.IOOnly {
		a.Cache.AccessVM(addr, len(src), true)
		r.WriteRaw(int(addr-r.Base), src)
	}
	if (r.WriteThrough || r.IOOnly) && a.IO != nil {
		a.storeIO(addr, src, cat)
	}
}

// Copy performs a bcopy-style bulk move of n bytes from src to dst,
// charging per-byte copy costs plus cache traffic on both ranges. The
// write half is doubled when dst is write-through.
func (a *Accessor) Copy(dst, src uint64, n int, cat Category) {
	if n <= 0 {
		return
	}
	rs := a.region(src, n)
	rd := a.region(dst, n)

	cost := a.Params.CopyByte * sim.Dur(n)
	a.stats.ChargedCompute += cost
	a.Clock.Advance(cost)
	a.stats.BytesRead += int64(n)
	a.stats.BytesWritten += int64(n)
	a.Cache.AccessVM(src, n, false)

	buf := a.scratch(n)
	rs.ReadRaw(int(src-rs.Base), buf)
	if !rd.IOOnly {
		a.Cache.AccessVM(dst, n, true)
		rd.WriteRaw(int(dst-rd.Base), buf)
	}
	if (rd.WriteThrough || rd.IOOnly) && a.IO != nil {
		a.storeIO(dst, buf, cat)
	}
}

// DiffRun is a maximal differing range found by Diff, relative to the
// start of the compared ranges.
type DiffRun struct {
	Off, Len int
}

// DiffGranularity is the comparison granule of mirror-by-diff: the Alpha
// writes the database mostly in 32-bit quantities, so differences are
// detected and written back in 4-byte units (paper Section 4.3).
const DiffGranularity = 4

// Diff compares [aAddr,+n) with [bAddr,+n), charging the comparison loop
// and the cache traffic of reading both operands, and returns the maximal
// runs (multiples of DiffGranularity) where they differ. The operands are
// read into the accessor's scratch buffer, which Copy reuses, and the runs
// slice is valid until the next Diff.
func (a *Accessor) Diff(aAddr, bAddr uint64, n int) []DiffRun {
	if n <= 0 {
		return nil
	}
	ra := a.region(aAddr, n)
	rb := a.region(bAddr, n)

	cost := a.Params.CompareByte * sim.Dur(n)
	a.stats.ChargedCompute += cost
	a.stats.BytesCompared += int64(n)
	a.Clock.Advance(cost)
	a.Cache.AccessVM(aAddr, n, false)
	a.Cache.AccessVM(bAddr, n, false)

	buf := a.scratch(2 * n)
	bufA, bufB := buf[:n], buf[n:]
	ra.ReadRaw(int(aAddr-ra.Base), bufA)
	rb.ReadRaw(int(bAddr-rb.Base), bufB)

	runs := a.runBuf[:0]
	run := -1
	for off := 0; off < n; off += DiffGranularity {
		end := off + DiffGranularity
		if end > n {
			end = n
		}
		if !bytesEqual(bufA[off:end], bufB[off:end]) {
			if run < 0 {
				run = off
			}
			continue
		}
		if run >= 0 {
			runs = append(runs, DiffRun{Off: run, Len: off - run})
			run = -1
		}
	}
	if run >= 0 {
		runs = append(runs, DiffRun{Off: run, Len: n - run})
	}
	a.runBuf = runs
	return runs
}

// Fence drains the node's write buffers, ordering all earlier doubled
// stores before any later ones (Alpha wmb + Memory Channel FIFO delivery).
func (a *Accessor) Fence() {
	if a.IO != nil {
		a.IO.Fence()
	}
}

// ReadU64 loads a little-endian 64-bit word.
func (a *Accessor) ReadU64(addr uint64) uint64 {
	a.Read(addr, a.wordBuf[:8])
	return binary.LittleEndian.Uint64(a.wordBuf[:8])
}

// WriteU64 stores a little-endian 64-bit word.
func (a *Accessor) WriteU64(addr uint64, v uint64, cat Category) {
	binary.LittleEndian.PutUint64(a.wordBuf[:8], v)
	a.Write(addr, a.wordBuf[:8], cat)
}

// ReadU32 loads a little-endian 32-bit word.
func (a *Accessor) ReadU32(addr uint64) uint32 {
	a.Read(addr, a.wordBuf[:4])
	return binary.LittleEndian.Uint32(a.wordBuf[:4])
}

// WriteU32 stores a little-endian 32-bit word.
func (a *Accessor) WriteU32(addr uint64, v uint32, cat Category) {
	binary.LittleEndian.PutUint32(a.wordBuf[:4], v)
	a.Write(addr, a.wordBuf[:4], cat)
}

func (a *Accessor) chargeLoad(addr uint64, n int) {
	a.stats.Loads++
	a.stats.BytesRead += int64(n)
	cost := a.Params.LoadWord * sim.Dur(Dur8(n))
	a.stats.ChargedCompute += cost
	a.Clock.Advance(cost)
	a.Cache.AccessVM(addr, n, false)
}

func (a *Accessor) storeIO(addr uint64, src []byte, cat Category) {
	words := Dur8(len(src))
	a.stats.IOStores++
	a.stats.BytesIO += int64(len(src))
	cost := a.Params.IOStoreWord * sim.Dur(words)
	a.stats.ChargedIOStores += cost
	a.Clock.Advance(cost)
	a.IO.StoreIO(addr, src, cat)
}

// scratch returns a reusable buffer of n bytes to keep bulk copies off the
// allocator's hot path.
func (a *Accessor) scratch(n int) []byte {
	if cap(a.scratchBuf) < n {
		a.scratchBuf = make([]byte, n)
	}
	a.scratchBuf = a.scratchBuf[:n]
	return a.scratchBuf
}

func bytesEqual(x, y []byte) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// Dur8 returns the number of 8-byte words covering n bytes.
func Dur8(n int) int { return (n + 7) / 8 }
