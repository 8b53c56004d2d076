package mem

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// backingSizes are the region shapes the backing tests cover: shorter than
// one page, whole pages, a short last page, and more pages than one word of
// the written-page bitmap holds.
var backingSizes = []int{100, 3*pageSize + 1000, 4 * pageSize, 70*pageSize + 5}

func newTestBacking(t *testing.T, n int) *Backing {
	t.Helper()
	b, err := newBacking(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestRegion(t *testing.T, name string, base uint64, size int) *Region {
	t.Helper()
	r, err := NewRegion(name, base, size)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBackingAsSliceRoundTrip: a region shorter than one page reads back a
// write as a plain []byte would, and holds the one page it wrote.
func TestBackingAsSliceRoundTrip(t *testing.T) {
	b := newTestBacking(t, 64)
	b.writeAt(10, []byte("hello"))
	got := make([]byte, 5)
	b.readAt(10, got)
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if len(b.mem) != 64 || b.Pages() != 1 {
		t.Fatalf("size %d, %d pages written; want 64, 1", len(b.mem), b.Pages())
	}
}

// TestBackingAsSliceHolesReadZero: unwritten memory reads as zero, as a fresh
// []byte does, before any write and beside a written page, and a read marks
// no page written.
func TestBackingAsSliceHolesReadZero(t *testing.T) {
	b := newTestBacking(t, 3*pageSize)
	got := bytes.Repeat([]byte{0xAA}, 16)
	b.readAt(pageSize+100, got)
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("hole read non-zero: %v", got)
	}
	if b.Pages() != 0 {
		t.Fatalf("reading marked %d pages", b.Pages())
	}
	b.writeAt(pageSize-8, bytes.Repeat([]byte{1}, 8))
	span := bytes.Repeat([]byte{0xAA}, 24)
	b.readAt(pageSize-8, span)
	if !bytes.Equal(span, append(bytes.Repeat([]byte{1}, 8), make([]byte, 16)...)) {
		t.Fatalf("read across a written page into a hole: %v", span)
	}
	if b.Pages() != 1 {
		t.Fatalf("%d pages held after one write inside page 0, want 1", b.Pages())
	}
}

// TestBackingAsSlicePageCrossing: a write crossing two page boundaries reads
// back like a []byte and marks exactly the three pages it touches, and a
// write into a short last page marks it.
func TestBackingAsSlicePageCrossing(t *testing.T) {
	b := newTestBacking(t, 3*pageSize+1000)
	data := make([]byte, pageSize+100)
	for i := range data {
		data[i] = byte(i)
	}
	off := pageSize - 50 // crosses two boundaries
	b.writeAt(off, data)
	got := make([]byte, len(data))
	b.readAt(off, got)
	if !bytes.Equal(got, data) {
		t.Fatal("page-crossing write/read mismatch")
	}
	if b.Pages() != 3 || b.written[0] != 0b111 {
		t.Fatalf("marked %d pages (%b), want pages 0-2", b.Pages(), b.written[0])
	}
	b.writeAt(len(b.mem)-10, data[:10])
	if b.Pages() != 4 {
		t.Fatalf("a write into the short last page: %d pages held, want 4", b.Pages())
	}
}

// TestBackingAsSliceOutOfRangePanics: reads and writes that start before the
// region, overrun its end or start past it panic, as they would on a []byte,
// on every region shape.
func TestBackingAsSliceOutOfRangePanics(t *testing.T) {
	for _, size := range backingSizes {
		b := newTestBacking(t, size)
		for _, s := range [][2]int{{-1, 1}, {size - 1, 2}, {size, 1}} {
			for name, op := range map[string]func(int, []byte){"read": b.readAt, "write": b.writeAt} {
				if !panics(func() { op(s[0], make([]byte, s[1])) }) {
					t.Fatalf("size %d: %s [%d,+%d) did not panic", size, name, s[0], s[1])
				}
			}
		}
	}
}

// TestBackingAsSliceRandomSpans holds the backing to a plain []byte over
// seeded random spans, half of them straddling a page boundary, on every
// region shape: holes read as zero, a read marks no page, and a write marks
// exactly the pages it touches.
func TestBackingAsSliceRandomSpans(t *testing.T) {
	for _, size := range backingSizes {
		b, ref := newTestBacking(t, size), make([]byte, size)
		touched := map[int]bool{}
		r := rand.New(rand.NewPCG(uint64(size), 7))
		for i := 0; i < 400; i++ {
			off := r.IntN(size)
			if i%2 == 0 { // start within 32 bytes of a page boundary
				off = min(max(r.IntN(size/pageSize+1)*pageSize+r.IntN(64)-32, 0), size-1)
			}
			span := ref[off : off+r.IntN(min(size-off, 2*pageSize+100)+1)]
			buf := make([]byte, len(span))
			if r.IntN(2) == 0 {
				for j := range buf {
					buf[j] = 0xAA
				}
				held := b.Pages()
				b.readAt(off, buf)
				if !bytes.Equal(buf, span) {
					t.Fatalf("size %d: read [%d,+%d) differs from the reference", size, off, len(buf))
				}
				if b.Pages() != held {
					t.Fatalf("size %d: a read marked %d pages", size, b.Pages()-held)
				}
				continue
			}
			for j := range buf {
				buf[j] = byte(r.Uint32())
			}
			b.writeAt(off, buf)
			copy(span, buf)
			for p := off / pageSize; len(buf) > 0 && p <= (off+len(buf)-1)/pageSize; p++ {
				touched[p] = true
			}
			if b.Pages() != len(touched) {
				t.Fatalf("size %d: write [%d,+%d) leaves %d pages marked, want %d", size, off, len(buf), b.Pages(), len(touched))
			}
		}
		got := make([]byte, size)
		b.readAt(0, got)
		if !bytes.Equal(got, ref) {
			t.Fatalf("size %d: whole read differs from the reference at byte %d", size, firstDiff(got, ref))
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
	r1 := newTestRegion(t, "a", 0x1000, 256)
	r2 := newTestRegion(t, "b", 0x2000, 256)
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
	if err := s.Add(newTestRegion(t, "a", 0x1000, 256)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(newTestRegion(t, "a", 0x9000, 16)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := s.Add(newTestRegion(t, "c", 0x10FF, 16)); err == nil {
		t.Fatal("overlapping region accepted")
	}
}

func TestRegionContains(t *testing.T) {
	r := newTestRegion(t, "r", 100, 50)
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
