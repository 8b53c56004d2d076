package rio

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newTestMemory(t *testing.T) (*Memory, *mem.Accessor) {
	t.Helper()
	p := sim.Default()
	clk := &sim.Clock{}
	sp := mem.NewSpace()
	return New(sp), mem.NewAccessor(&p, clk, cache.New(&p, clk), sp)
}

func TestSegmentCreateAndLookup(t *testing.T) {
	m, _ := newTestMemory(t)
	r, err := m.Segment("db", 0x1000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Lookup("db")
	if err != nil || got != r {
		t.Fatalf("Lookup: %v %v", got, err)
	}
	if _, err := m.Lookup("nope"); err == nil {
		t.Fatal("missing segment found")
	}
	if _, err := m.Segment("db", 0x9000, 64); err == nil {
		t.Fatal("duplicate segment accepted")
	}
}

// TestSegmentSparse: a segment holds no host memory until written, and a
// write holds only the page it lands in.
func TestSegmentSparse(t *testing.T) {
	m, acc := newTestMemory(t)
	r, err := m.Segment("big", 0x100000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Backing().Pages(); n != 0 {
		t.Fatalf("a fresh segment holds %d pages", n)
	}
	acc.WriteU64(r.Base+5000, 1, mem.CatMeta)
	if n := r.Backing().Pages(); n != 1 {
		t.Fatalf("one word written, %d pages held", n)
	}
}

func TestAttach(t *testing.T) {
	m, _ := newTestMemory(t)
	r, err := mem.NewRegion("x", 0x5000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(r); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Lookup("x"); got != r {
		t.Fatal("attached region not found")
	}
}

func newTestHeap(t *testing.T, size int) (*Heap, *mem.Accessor, *mem.Region) {
	t.Helper()
	m, acc := newTestMemory(t)
	reg, err := m.Segment("heap", 0x10000, size)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(acc, reg, reg.Base, size)
	if err != nil {
		t.Fatal(err)
	}
	return h, acc, reg
}

func TestHeapAllocFreeRoundtrip(t *testing.T) {
	h, acc, _ := newTestHeap(t, 4096)
	a, err := h.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("overlapping allocations")
	}
	acc.WriteU64(a, 0x1111, mem.CatMeta)
	acc.WriteU64(b, 0x2222, mem.CatMeta)
	if acc.ReadU64(a) != 0x1111 || acc.ReadU64(b) != 0x2222 {
		t.Fatal("allocations alias")
	}
	h.Free(a)
	h.Free(b)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapCoalescing(t *testing.T) {
	h, _, _ := newTestHeap(t, 4096)
	// Allocate everything in chunks, free all, then the full block must
	// be allocatable again — proof of coalescing.
	var ptrs []uint64
	for {
		p, err := h.Alloc(256)
		if err != nil {
			break
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) < 10 {
		t.Fatalf("only %d allocations fit", len(ptrs))
	}
	for _, p := range ptrs {
		h.Free(p)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(3000); err != nil {
		t.Fatalf("large alloc after coalescing: %v", err)
	}
}

func TestHeapOutOfMemory(t *testing.T) {
	h, _, _ := newTestHeap(t, 512)
	if _, err := h.Alloc(1 << 20); err == nil {
		t.Fatal("oversized alloc succeeded")
	}
	if _, err := h.Alloc(-1); err == nil {
		t.Fatal("negative alloc succeeded")
	}
}

func TestHeapOpenAfterRestart(t *testing.T) {
	h, acc, reg := newTestHeap(t, 4096)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	acc.WriteU64(p, 0xFEED, mem.CatMeta)

	// Reopen over the same reliable memory: the allocation survives.
	h2, err := OpenHeap(acc, reg, reg.Base)
	if err != nil {
		t.Fatal(err)
	}
	if acc.ReadU64(p) != 0xFEED {
		t.Fatal("allocation lost across reopen")
	}
	q, err := h2.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Fatal("reopened heap re-issued a live block")
	}
	if err := h2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapOpenCorruptRoot(t *testing.T) {
	m, acc := newTestMemory(t)
	reg, err := m.Segment("heap", 0x10000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenHeap(acc, reg, reg.Base); err == nil {
		t.Fatal("zeroed root opened as a heap")
	}
}

// TestHeapRandomOpsKeepInvariants: arbitrary interleavings of allocations
// and frees preserve boundary tags and free-list consistency, and live
// payloads never overlap.
func TestHeapRandomOpsKeepInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		h, _, _ := newTestHeap(t, 1<<16)
		r := rand.New(rand.NewPCG(seed, 5))
		type blk struct {
			at uint64
			n  int
		}
		var live []blk
		for op := 0; op < 300; op++ {
			if len(live) == 0 || r.IntN(5) < 3 {
				n := 1 + r.IntN(400)
				at, err := h.Alloc(n)
				if err != nil {
					continue // heap momentarily full: fine
				}
				// No overlap with any live block.
				for _, l := range live {
					if at < l.at+uint64(l.n)+8 && l.at < at+uint64(n)+8 {
						return false
					}
				}
				live = append(live, blk{at: at, n: n})
			} else {
				i := r.IntN(len(live))
				h.Free(live[i].at)
				live = append(live[:i], live[i+1:]...)
			}
		}
		return h.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapMetadataIsCharged(t *testing.T) {
	// The whole point of the V0 reproduction: allocator bookkeeping is
	// real memory traffic through the accessor.
	h, acc, _ := newTestHeap(t, 4096)
	before := acc.Stats().BytesWritten
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	h.Free(p)
	if delta := acc.Stats().BytesWritten - before; delta < 32 {
		t.Fatalf("alloc+free wrote only %d metadata bytes", delta)
	}
}
