package memchannel

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func newRegion(t *testing.T, name string, base uint64, size int) *mem.Region {
	t.Helper()
	r, err := mem.NewRegion(name, base, size)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestNode(t *testing.T, size int) (*Node, *mem.Region, *sim.Clock, *sim.Link) {
	t.Helper()
	p := sim.Default()
	clk := &sim.Clock{}
	link := sim.NewLink(&p)
	n := NewNode(&p, clk, link)
	remote := newRegion(t, "remote", 0, size)
	if err := n.Map(Mapping{SrcBase: 0, Size: size, To: []Target{{Dst: remote}}}); err != nil {
		t.Fatal(err)
	}
	return n, remote, clk, link
}

func TestContiguousStoresCoalesceToOnePacket(t *testing.T) {
	n, remote, _, link := newTestNode(t, 4096)
	// Four 8-byte stores filling one aligned 32-byte block: exactly one
	// full packet, emitted at the moment the block fills.
	for i := 0; i < 4; i++ {
		n.StoreIO(uint64(i*8), []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}, mem.CatModified)
	}
	s := link.Stats()
	if s.Packets != 1 || s.SizeHist[32] != 1 {
		t.Fatalf("stats %+v, want one 32-byte packet", s)
	}
	got := make([]byte, 8)
	remote.ReadRaw(24, got)
	if got[0] != 3 {
		t.Fatalf("remote bytes wrong: %v", got)
	}
}

func TestScatteredStoresEmitOnPressure(t *testing.T) {
	n, _, _, link := newTestNode(t, 1<<20)
	p := sim.Default()
	// 7 scattered 4-byte stores: the 7th evicts the oldest buffer.
	for i := 0; i < 7; i++ {
		n.StoreIO(uint64(i*64), []byte{1, 2, 3, 4}, mem.CatModified)
	}
	s := link.Stats()
	if s.Packets != 1 || s.SizeHist[4] != 1 {
		t.Fatalf("stats %+v, want one 4-byte eviction", s)
	}
	_ = p
}

func TestFenceDrainsInAllocationOrder(t *testing.T) {
	n, remote, _, link := newTestNode(t, 4096)
	n.StoreIO(0, []byte{1}, mem.CatMeta)
	n.StoreIO(64, []byte{2}, mem.CatMeta)
	n.StoreIO(128, []byte{3}, mem.CatMeta)
	n.Fence()
	if got := link.Stats().Packets; got != 3 {
		t.Fatalf("fence emitted %d packets, want 3", got)
	}
	for i, off := range []int{0, 64, 128} {
		got := make([]byte, 1)
		remote.ReadRaw(off, got)
		if got[0] != byte(i+1) {
			t.Fatalf("byte at %d = %d", off, got[0])
		}
	}
	n.Fence() // idempotent on empty buffers
	if got := link.Stats().Packets; got != 3 {
		t.Fatalf("second fence emitted packets: %d", got)
	}
}

func TestWriteDoublingVisibleOnlyAfterEmission(t *testing.T) {
	n, remote, _, _ := newTestNode(t, 4096)
	n.StoreIO(100, []byte{42}, mem.CatModified)
	got := make([]byte, 1)
	remote.ReadRaw(100, got)
	if got[0] != 0 {
		t.Fatal("buffered store visible remotely before emission")
	}
	n.Fence()
	remote.ReadRaw(100, got)
	if got[0] != 42 {
		t.Fatal("fenced store not applied remotely")
	}
}

func TestCrashLosesBufferedKeepsEmitted(t *testing.T) {
	n, remote, _, _ := newTestNode(t, 4096)
	n.StoreIO(0, []byte{1}, mem.CatModified)
	n.Fence() // emitted: survives
	n.StoreIO(64, []byte{2}, mem.CatUndo)
	n.Crash() // buffered: lost (young buffer, no drain age reached)

	a := make([]byte, 1)
	b := make([]byte, 1)
	remote.ReadRaw(0, a)
	remote.ReadRaw(64, b)
	if a[0] != 1 {
		t.Fatal("emitted store lost at crash")
	}
	if b[0] != 0 {
		t.Fatal("buffered store survived crash")
	}
	if !n.Crashed() {
		t.Fatal("Crashed() false")
	}
	n.StoreIO(128, []byte{3}, mem.CatMeta) // silently dropped
	n.Fence()
	c := make([]byte, 1)
	remote.ReadRaw(128, c)
	if c[0] != 0 {
		t.Fatal("post-crash store applied")
	}
	// Only the emitted byte crossed the SAN.
	wantCategoryBytes(t, n, map[mem.Category]int64{mem.CatModified: 1})
}

// wantCategoryBytes fails unless n's per-category byte counts are exactly
// want (absent categories zero).
func wantCategoryBytes(t *testing.T, n *Node, want map[mem.Category]int64) {
	t.Helper()
	for c, got := range n.CategoryBytes() {
		if got != want[c] {
			t.Fatalf("category %v counted %d bytes, want %d (all: %v)", c, got, want[c], n.CategoryBytes())
		}
	}
}

func TestCrashDeliversStaleBuffers(t *testing.T) {
	// A buffer older than DrainAge left the CPU before the crash: it
	// must survive (this keeps the 1-safe window at microseconds).
	n, remote, clk, _ := newTestNode(t, 4096)
	p := sim.Default()
	n.StoreIO(0, []byte{7}, mem.CatModified)
	clk.Advance(p.DrainAge * 2)
	n.Crash()
	got := make([]byte, 1)
	remote.ReadRaw(0, got)
	if got[0] != 7 {
		t.Fatal("stale buffer lost at crash")
	}
}

func TestDrainStaleOnActivity(t *testing.T) {
	n, remote, clk, _ := newTestNode(t, 4096)
	p := sim.Default()
	n.StoreIO(0, []byte{9}, mem.CatModified)
	clk.Advance(p.DrainAge + sim.Nanosecond)
	// Any later I/O activity retires the stale buffer first.
	n.StoreIO(512, []byte{1}, mem.CatModified)
	got := make([]byte, 1)
	remote.ReadRaw(0, got)
	if got[0] != 9 {
		t.Fatal("stale buffer not drained by subsequent activity")
	}
}

func TestIdleDrainsEverything(t *testing.T) {
	n, remote, _, _ := newTestNode(t, 4096)
	n.StoreIO(0, []byte{5}, mem.CatModified)
	n.Idle(sim.Microsecond)
	got := make([]byte, 1)
	remote.ReadRaw(0, got)
	if got[0] != 5 {
		t.Fatal("Idle did not drain")
	}
}

func TestCrashAfterPacketsFreezesMidStream(t *testing.T) {
	n, remote, _, _ := newTestNode(t, 1<<20)
	n.CrashAfterPackets(2)
	for i := 0; i < 10; i++ {
		n.StoreIO(uint64(i*64), []byte{byte(i + 1)}, mem.CatModified)
		n.Fence()
	}
	applied := 0
	for i := 0; i < 10; i++ {
		got := make([]byte, 1)
		remote.ReadRaw(i*64, got)
		if got[0] != 0 {
			applied++
		}
	}
	if applied != 2 {
		t.Fatalf("%d packets applied, want exactly 2", applied)
	}
	if !n.Crashed() {
		t.Fatal("injection did not mark the node crashed")
	}
	wantCategoryBytes(t, n, map[mem.Category]int64{mem.CatModified: 2})
}

func TestCategoryAccounting(t *testing.T) {
	n, _, _, _ := newTestNode(t, 4096)
	n.StoreIO(0, []byte{1, 2, 3, 4}, mem.CatModified)
	n.StoreIO(4, []byte{5, 6}, mem.CatUndo)
	n.StoreIO(4, []byte{7, 8}, mem.CatMeta) // overwrites the undo bytes in-buffer
	// Twelve undo bytes across two blocks (60..63 and 64..71), then a
	// partial overwrite of four of them (62..65, straddling the boundary)
	// under a third category.
	n.StoreIO(60, bytes.Repeat([]byte{9}, 12), mem.CatUndo)
	n.StoreIO(62, []byte{1, 2, 3, 4}, mem.CatSync)
	n.Fence()
	// Overwritten-in-buffer bytes count once, under their final category
	// — wire-accurate accounting.
	wantCategoryBytes(t, n, map[mem.Category]int64{
		mem.CatModified: 4, mem.CatMeta: 2, mem.CatUndo: 8, mem.CatSync: 4,
	})
	n.ResetStats()
	wantCategoryBytes(t, n, nil)
}

func TestMappingValidation(t *testing.T) {
	p := sim.Default()
	clk := &sim.Clock{}
	n := NewNode(&p, clk, sim.NewLink(&p))
	r := newRegion(t, "r", 0, 128)
	small := newRegion(t, "small", 0, 64)
	for _, to := range [][]Target{
		{{Dst: small}},
		{{Dst: nil}},
		{{Dst: r}, {Dst: small}}, // the check holds for every receiver
		{{Dst: r}, {Dst: nil}},
	} {
		if err := n.Map(Mapping{SrcBase: 0, Size: 128, To: to}); err == nil {
			t.Fatalf("receivers %v accepted: nil or smaller than the window", to)
		}
	}
	if err := n.Map(Mapping{SrcBase: 0, Size: 128, To: []Target{{Dst: r}}}); err != nil {
		t.Fatal(err)
	}
	if err := n.Map(Mapping{SrcBase: 64, Size: 64, To: []Target{{Dst: r}}}); err == nil {
		t.Fatal("overlapping window accepted")
	}
	if err := n.AddTarget(0, Target{Dst: small}); err == nil {
		t.Fatal("AddTarget accepted a receiver smaller than the window")
	}
	if err := n.AddTarget(0, Target{}); err == nil {
		t.Fatal("AddTarget accepted a nil receiver")
	}
}

func TestUnmappedIOStorePanics(t *testing.T) {
	n, _, _, _ := newTestNode(t, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped I/O store did not panic at emission")
		}
	}()
	n.StoreIO(1<<20, []byte{1}, mem.CatMeta)
	n.Fence()
}

// TestRandomStoresMatchShadow: arbitrary store sequences, once fenced,
// leave the remote region byte-identical to a simple shadow model.
func TestRandomStoresMatchShadow(t *testing.T) {
	const size = 1 << 14
	f := func(seed uint64) bool {
		n, remote, _, _ := newTestNode(t, size)
		r := rand.New(rand.NewPCG(seed, 3))
		shadow := make([]byte, size)
		for i := 0; i < 500; i++ {
			off := r.IntN(size - 16)
			ln := 1 + r.IntN(16)
			buf := make([]byte, ln)
			for j := range buf {
				buf[j] = byte(r.Uint32())
			}
			n.StoreIO(uint64(off), buf, mem.CatModified)
			copy(shadow[off:], buf)
		}
		n.Fence()
		got := make([]byte, size)
		remote.ReadRaw(0, got)
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRecording(t *testing.T) {
	n, _, clk, _ := newTestNode(t, 4096)
	tr := &sim.Trace{}
	n.SetTrace(tr)
	clk.Advance(100 * sim.Nanosecond)
	n.StoreIO(0, []byte{1}, mem.CatModified)
	n.Fence()
	if len(tr.Events) < 2 {
		t.Fatalf("trace has %d events", len(tr.Events))
	}
	if tr.Events[0].Kind != sim.EvCompute || tr.Events[0].Dur != 100*sim.Nanosecond {
		t.Fatalf("first event %+v, want 100ns compute", tr.Events[0])
	}
	if tr.Events[1].Kind != sim.EvPacket || tr.Events[1].Size != 1 {
		t.Fatalf("second event %+v, want 1-byte packet", tr.Events[1])
	}
}

func TestAddAndRemoveTargets(t *testing.T) {
	p := sim.Default()
	clk := &sim.Clock{}
	n := NewNode(&p, clk, sim.NewLink(&p))
	first := newRegion(t, "first", 0, 64)
	second := newRegion(t, "second", 0, 64)
	third := newRegion(t, "third", 0, 64)
	var downFirst, downSecond, downThird bool
	if err := n.Map(Mapping{SrcBase: 0, Size: 64, To: []Target{{Dst: first, Down: &downFirst}}}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddTarget(0, Target{Dst: second, Down: &downSecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddTarget(0, Target{Dst: third, Down: &downThird}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddTarget(4096, Target{Dst: third}); err == nil {
		t.Fatal("AddTarget on an unmapped window must fail")
	}

	write := func(payload string) {
		n.StoreIO(0, []byte(payload), mem.CatModified)
		n.Fence()
	}
	read := func(r *mem.Region, l int) string {
		buf := make([]byte, l)
		r.ReadRaw(0, buf)
		return string(buf)
	}
	write("broadcast")
	for _, r := range []*mem.Region{first, second, third} {
		if got := read(r, 9); got != "broadcast" {
			t.Fatalf("%s received %q", r.Name, got)
		}
	}

	// Removing a receiver, first or later in the list, detaches it and
	// leaves the remaining one on the window.
	n.RemoveTargets(&downFirst)
	n.RemoveTargets(&downSecond)
	write("survivors")
	if got := read(third, 9); got != "survivors" {
		t.Fatalf("remaining receiver got %q", got)
	}
	for _, r := range []*mem.Region{first, second} {
		if got := read(r, 9); got != "broadcast" {
			t.Fatalf("removed receiver %s still written: %q", r.Name, got)
		}
	}

	// A window stripped of every receiver delivers nothing, but its stores
	// still leave as packets and are counted (and it takes new targets).
	n.RemoveTargets(&downThird)
	n.ResetStats()
	write("nobody...")
	if got := read(third, 9); got != "survivors" {
		t.Fatalf("fully-detached window still delivered: %q", got)
	}
	wantCategoryBytes(t, n, map[mem.Category]int64{mem.CatModified: 9})
	fourth := newRegion(t, "fourth", 0, 64)
	var downFourth bool
	if err := n.AddTarget(0, Target{Dst: fourth, Down: &downFourth}); err != nil {
		t.Fatal(err)
	}
	write("rejoined!")
	if got := read(fourth, 9); got != "rejoined!" {
		t.Fatalf("re-attached receiver got %q", got)
	}
}
