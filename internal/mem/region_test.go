package mem

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// backingSizes are the region shapes the backing tests cover: shorter than
// one chunk, whole chunks and a short last chunk.
var backingSizes = []int{100, 3*chunkSize + 1000, 4 * chunkSize}

// TestDenseBacking: a region shorter than one chunk round-trips a write in
// a single chunk sized to the region.
func TestDenseBacking(t *testing.T) {
	b := newBacking(64)
	b.writeAt(10, []byte("hello"))
	got := make([]byte, 5)
	b.readAt(10, got)
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if b.size != 64 || len(b.chunks) != 1 || len(b.chunks[0]) != 64 {
		t.Fatalf("size %d, %d chunks, first %d bytes; want 64, 1, 64", b.size, len(b.chunks), len(b.chunks[0]))
	}
}

// TestSparseBackingHolesReadZero: unwritten memory reads as zero, before
// any write and beside a written chunk, and a read allocates nothing.
func TestSparseBackingHolesReadZero(t *testing.T) {
	b := newBacking(3 * chunkSize)
	got := bytes.Repeat([]byte{0xAA}, 16)
	b.readAt(chunkSize+100, got)
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("hole read non-zero: %v", got)
	}
	if b.Chunks() != 0 {
		t.Fatalf("reading allocated %d chunks", b.Chunks())
	}
	b.writeAt(chunkSize-8, bytes.Repeat([]byte{1}, 8))
	span := bytes.Repeat([]byte{0xAA}, 24)
	b.readAt(chunkSize-8, span)
	if !bytes.Equal(span, append(bytes.Repeat([]byte{1}, 8), make([]byte, 16)...)) {
		t.Fatalf("read across a written chunk into a hole: %v", span)
	}
	if b.Chunks() != 1 {
		t.Fatalf("%d chunks held after one write inside chunk 0, want 1", b.Chunks())
	}
}

// TestSparseBackingPageCrossing: a write crossing two chunk boundaries
// allocates exactly the three chunks it touches, and a write into a short
// last chunk allocates it at what the region has left.
func TestSparseBackingPageCrossing(t *testing.T) {
	b := newBacking(3*chunkSize + 1000)
	data := make([]byte, chunkSize+100)
	for i := range data {
		data[i] = byte(i)
	}
	off := chunkSize - 50 // crosses two boundaries
	b.writeAt(off, data)
	got := make([]byte, len(data))
	b.readAt(off, got)
	if !bytes.Equal(got, data) {
		t.Fatal("chunk-crossing write/read mismatch")
	}
	if b.Chunks() != 3 || b.chunks[0] == nil || b.chunks[1] == nil || b.chunks[2] == nil {
		t.Fatalf("allocated %d chunks, want chunks 0-2", b.Chunks())
	}
	b.writeAt(b.size-10, data[:10])
	if b.Chunks() != 4 || len(b.chunks[3]) != 1000 {
		t.Fatalf("last chunk: %d chunks held, last %d bytes; want 4, 1000", b.Chunks(), len(b.chunks[3]))
	}
}

// TestSparseBackingOutOfRangePanics: reads and writes that start before the
// region, overrun its end or start past it panic, on every region shape.
func TestSparseBackingOutOfRangePanics(t *testing.T) {
	for _, size := range backingSizes {
		b := newBacking(size)
		for _, s := range [][2]int{{-1, 1}, {size - 1, 2}, {size, 1}} {
			for name, op := range map[string]func(int, []byte){"read": b.readAt, "write": b.writeAt} {
				if !panics(func() { op(s[0], make([]byte, s[1])) }) {
					t.Fatalf("size %d: %s [%d,+%d) did not panic", size, name, s[0], s[1])
				}
			}
		}
	}
}

// TestSparseMatchesDense holds the backing to a dense reference, a plain
// []byte, over seeded random spans on every region shape: holes read as
// zero, a read allocates no chunk, and a write allocates exactly the chunks
// it touches, each sized to what the region has left.
func TestSparseMatchesDense(t *testing.T) {
	for _, size := range backingSizes {
		b, ref := newBacking(size), make([]byte, size)
		touched := map[int]bool{}
		r := rand.New(rand.NewPCG(uint64(size), 7))
		for i := 0; i < 400; i++ {
			off := r.IntN(size)
			if i%2 == 0 { // start within 32 bytes of a chunk boundary
				off = min(max(r.IntN(size/chunkSize+1)*chunkSize+r.IntN(64)-32, 0), size-1)
			}
			span := ref[off : off+r.IntN(min(size-off, 2*chunkSize+100)+1)]
			buf := make([]byte, len(span))
			if r.IntN(2) == 0 {
				for j := range buf {
					buf[j] = 0xAA
				}
				held := b.Chunks()
				b.readAt(off, buf)
				if !bytes.Equal(buf, span) {
					t.Fatalf("size %d: read [%d,+%d) differs from the reference", size, off, len(buf))
				}
				if b.Chunks() != held {
					t.Fatalf("size %d: a read allocated %d chunks", size, b.Chunks()-held)
				}
				continue
			}
			for j := range buf {
				buf[j] = byte(r.Uint32())
			}
			b.writeAt(off, buf)
			copy(span, buf)
			for c := off / chunkSize; len(buf) > 0 && c <= (off+len(buf)-1)/chunkSize; c++ {
				touched[c] = true
			}
			if b.Chunks() != len(touched) {
				t.Fatalf("size %d: write [%d,+%d) leaves %d chunks held, want %d", size, off, len(buf), b.Chunks(), len(touched))
			}
		}
		got := make([]byte, size)
		b.readAt(0, got)
		if !bytes.Equal(got, ref) {
			t.Fatalf("size %d: whole read differs from the reference at byte %d", size, firstDiff(got, ref))
		}
		for c, ch := range b.chunks {
			if ch != nil && len(ch) != min(chunkSize, size-c*chunkSize) {
				t.Fatalf("size %d: chunk %d holds %d bytes", size, c, len(ch))
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestSpaceAddAndLookup(t *testing.T) {
	s := NewSpace()
	r1 := NewRegion("a", 0x1000, 256)
	r2 := NewRegion("b", 0x2000, 256)
	for _, r := range []*Region{r1, r2} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Lookup(0x1010, 16); got != r1 {
		t.Fatalf("Lookup landed on %v", got)
	}
	if got := s.Lookup(0x10F0, 32); got != nil {
		t.Fatal("Lookup matched a range overrunning the region")
	}
	if got := s.Lookup(0x1500, 1); got != nil {
		t.Fatal("Lookup matched a gap")
	}
	if s.ByName("b") != r2 || s.ByName("zzz") != nil {
		t.Fatal("ByName wrong")
	}
	if got := len(s.Regions()); got != 2 {
		t.Fatalf("Regions() = %d entries", got)
	}
}

func TestSpaceRejectsOverlapAndDuplicates(t *testing.T) {
	s := NewSpace()
	if err := s.Add(NewRegion("a", 0x1000, 256)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(NewRegion("a", 0x9000, 16)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := s.Add(NewRegion("c", 0x10FF, 16)); err == nil {
		t.Fatal("overlapping region accepted")
	}
}

func TestRegionContains(t *testing.T) {
	r := NewRegion("r", 100, 50)
	cases := []struct {
		addr uint64
		n    int
		want bool
	}{
		{100, 50, true},
		{100, 51, false},
		{99, 1, false},
		{149, 1, true},
		{150, 1, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.addr, c.n); got != c.want {
			t.Errorf("Contains(%d,%d) = %v", c.addr, c.n, got)
		}
	}
	if r.End() != 150 {
		t.Fatalf("End() = %d", r.End())
	}
}

func TestCategoryString(t *testing.T) {
	if CatModified.String() != "Modified data" || CatUndo.String() != "Undo data" ||
		CatMeta.String() != "Meta-data" || Category(99).String() != "unknown" {
		t.Fatal("category names changed")
	}
	if !CatUndo.Valid() || Category(0).Valid() || Category(9).Valid() {
		t.Fatal("Valid() wrong")
	}
}
