package mem

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/sim"
)

// fakeSink records I/O-space stores for inspection.
type fakeSink struct {
	stores []fakeStore
	fences int
}

type fakeStore struct {
	addr uint64
	data []byte
	cat  Category
}

func (f *fakeSink) StoreIO(addr uint64, src []byte, cat Category) {
	f.stores = append(f.stores, fakeStore{addr: addr, data: append([]byte(nil), src...), cat: cat})
}

func (f *fakeSink) Fence() { f.fences++ }

var _ IOSink = (*fakeSink)(nil)

func newTestAccessor(t *testing.T) (*Accessor, *Region, *Region, *fakeSink) {
	t.Helper()
	p := sim.Default()
	clk := &sim.Clock{}
	sp := NewSpace()
	local := newTestRegion(t, "local", 0x10000, 4096)
	repl := newTestRegion(t, "repl", 0x20000, 4096)
	repl.WriteThrough = true
	for _, r := range []*Region{local, repl} {
		if err := sp.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	acc := NewAccessor(&p, clk, cache.New(&p, clk), sp)
	sink := &fakeSink{}
	acc.IO = sink
	return acc, local, repl, sink
}

func TestWriteLocalOnly(t *testing.T) {
	acc, local, _, sink := newTestAccessor(t)
	acc.Write(local.Base+8, []byte("abc"), CatModified)
	got := make([]byte, 3)
	local.ReadRaw(8, got)
	if string(got) != "abc" {
		t.Fatalf("local write landed as %q", got)
	}
	if len(sink.stores) != 0 {
		t.Fatal("non-replicated write reached the SAN")
	}
}

func TestWriteThroughDoubles(t *testing.T) {
	acc, _, repl, sink := newTestAccessor(t)
	acc.Write(repl.Base+16, []byte{1, 2, 3, 4}, CatUndo)
	got := make([]byte, 4)
	repl.ReadRaw(16, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatal("local half of doubled write missing")
	}
	if len(sink.stores) != 1 {
		t.Fatalf("%d I/O stores, want 1", len(sink.stores))
	}
	s := sink.stores[0]
	if s.addr != repl.Base+16 || !bytes.Equal(s.data, []byte{1, 2, 3, 4}) || s.cat != CatUndo {
		t.Fatalf("I/O store %+v wrong", s)
	}
}

func TestWriteNoSinkStandalone(t *testing.T) {
	acc, _, repl, _ := newTestAccessor(t)
	acc.IO = nil
	acc.Write(repl.Base, []byte{9}, CatMeta) // must not panic
	got := make([]byte, 1)
	repl.ReadRaw(0, got)
	if got[0] != 9 {
		t.Fatal("standalone write lost")
	}
}

func TestIOOnlyRegionSkipsLocal(t *testing.T) {
	acc, _, _, sink := newTestAccessor(t)
	ioReg := newTestRegion(t, "ioonly", 0x30000, 64)
	ioReg.IOOnly = true
	if err := acc.Space.Add(ioReg); err != nil {
		t.Fatal(err)
	}
	acc.Write(ioReg.Base, []byte{5, 6}, CatModified)
	got := make([]byte, 2)
	ioReg.ReadRaw(0, got)
	if got[0] != 0 || got[1] != 0 {
		t.Fatal("IOOnly write landed locally")
	}
	if len(sink.stores) != 1 {
		t.Fatalf("IOOnly write produced %d I/O stores", len(sink.stores))
	}
}

func TestReadAfterWrite(t *testing.T) {
	acc, local, _, _ := newTestAccessor(t)
	acc.WriteU64(local.Base+24, 0xDEADBEEF01020304, CatMeta)
	if got := acc.ReadU64(local.Base + 24); got != 0xDEADBEEF01020304 {
		t.Fatalf("ReadU64 = %#x", got)
	}
	acc.WriteU32(local.Base+40, 0xCAFE, CatMeta)
	if got := acc.ReadU32(local.Base + 40); got != 0xCAFE {
		t.Fatalf("ReadU32 = %#x", got)
	}
}

func TestCopyMovesBytesAndDoubles(t *testing.T) {
	acc, local, repl, sink := newTestAccessor(t)
	src := []byte("copy me through the SAN!")
	local.WriteRaw(100, src)
	acc.Copy(repl.Base+200, local.Base+100, len(src), CatUndo)

	got := make([]byte, len(src))
	repl.ReadRaw(200, got)
	if !bytes.Equal(got, src) {
		t.Fatalf("copy landed as %q", got)
	}
	if len(sink.stores) != 1 || !bytes.Equal(sink.stores[0].data, src) {
		t.Fatal("copy's doubled write wrong")
	}
}

func TestDiffFindsRuns(t *testing.T) {
	acc, local, _, _ := newTestAccessor(t)
	a := local.Base
	b := local.Base + 512
	buf := make([]byte, 64)
	local.WriteRaw(0, buf)
	local.WriteRaw(512, buf)

	// Perturb granules 1 and 2 (bytes 4..12) and granule 8 (bytes 32..36).
	local.WriteRaw(4, []byte{1, 1, 1, 1, 2, 2, 2, 2})
	local.WriteRaw(32, []byte{3})

	runs := acc.Diff(a, b, 64)
	want := []DiffRun{{Off: 4, Len: 8}, {Off: 32, Len: 4}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %+v, want %+v", runs, want)
	}
	for i := range runs {
		if runs[i] != want[i] {
			t.Fatalf("run %d = %+v, want %+v", i, runs[i], want[i])
		}
	}
}

func TestDiffIdentical(t *testing.T) {
	acc, local, _, _ := newTestAccessor(t)
	if runs := acc.Diff(local.Base, local.Base+1024, 128); runs != nil {
		t.Fatalf("identical ranges diffed: %+v", runs)
	}
}

// TestDiffThenCopyEqualizes: applying the diff's runs as copies makes the
// two ranges byte-identical — the Version 2 commit invariant.
func TestDiffThenCopyEqualizes(t *testing.T) {
	f := func(seed uint64) bool {
		p := sim.Default()
		clk := &sim.Clock{}
		sp := NewSpace()
		reg := newTestRegion(t, "r", 0, 2048)
		if err := sp.Add(reg); err != nil {
			return false
		}
		acc := NewAccessor(&p, clk, cache.New(&p, clk), sp)

		r := rand.New(rand.NewPCG(seed, 7))
		a := make([]byte, 256)
		b := make([]byte, 256)
		for i := range a {
			a[i] = byte(r.Uint32())
			if r.IntN(3) == 0 {
				b[i] = a[i]
			} else {
				b[i] = byte(r.Uint32())
			}
		}
		reg.WriteRaw(0, a)
		reg.WriteRaw(1024, b)

		for _, run := range acc.Diff(0, 1024, 256) {
			acc.Copy(1024+uint64(run.Off), uint64(run.Off), run.Len, CatUndo)
		}
		got := make([]byte, 256)
		reg.ReadRaw(1024, got)
		return bytes.Equal(got, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorChargesTime(t *testing.T) {
	acc, local, _, _ := newTestAccessor(t)
	acc.Charge(100 * sim.Nanosecond)
	if acc.Clock.Now() == 0 {
		t.Fatal("Charge did not advance the clock")
	}
	before := acc.Clock.Now()
	acc.Write(local.Base, make([]byte, 64), CatModified)
	if acc.Clock.Now() <= before {
		t.Fatal("Write charged nothing")
	}
	st := acc.Stats()
	if st.Stores != 1 || st.BytesWritten != 64 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAccessorFencePassThrough(t *testing.T) {
	acc, _, _, sink := newTestAccessor(t)
	acc.Fence()
	if sink.fences != 1 {
		t.Fatal("fence not forwarded")
	}
	acc.IO = nil
	acc.Fence() // must not panic
}

func TestAccessorOutOfRegionPanics(t *testing.T) {
	acc, _, _, _ := newTestAccessor(t)
	defer func() {
		if recover() == nil {
			t.Fatal("wild access did not panic")
		}
	}()
	acc.Read(0xDEAD00000, make([]byte, 4))
}

func TestDur8(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 8: 1, 9: 2, 16: 2, 17: 3}
	for n, want := range cases {
		if got := Dur8(n); got != want {
			t.Errorf("Dur8(%d) = %d, want %d", n, got, want)
		}
	}
}
