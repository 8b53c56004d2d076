package sim

import "testing"

func testParams() *Params {
	p := Default()
	return &p
}

func TestPacketTimeMatchesFigure1(t *testing.T) {
	// The affine cost model must land on the paper's Figure 1 points.
	p := testParams()
	cases := []struct {
		size    int
		minMBps float64
		maxMBps float64
	}{
		{4, 13, 15},
		{8, 24, 28},
		{16, 45, 50},
		{32, 78, 82},
	}
	for _, c := range cases {
		got := p.EffectiveBandwidth(c.size) / 1e6
		if got < c.minMBps || got > c.maxMBps {
			t.Errorf("EffectiveBandwidth(%dB) = %.1f MB/s, want within [%v, %v]",
				c.size, got, c.minMBps, c.maxMBps)
		}
	}
}

func TestLinkFIFOServiceAndDelivery(t *testing.T) {
	p := testParams()
	l := NewLink(p)
	_, d1 := l.Submit(0, 32, false)
	_, d2 := l.Submit(0, 32, false)
	svc := Time(p.PacketTime(32))
	lat := Time(p.LinkLatency)
	if d1 != svc+lat {
		t.Fatalf("first delivery at %v, want %v", d1, svc+lat)
	}
	if d2 != 2*svc+lat {
		t.Fatalf("second delivery at %v, want %v (FIFO serialization)", d2, 2*svc+lat)
	}
}

func TestLinkAsyncWindowStall(t *testing.T) {
	p := testParams()
	p.PostedDepth = 2
	l := NewLink(p)
	svc := Time(p.PacketTime(32))

	// First two packets post without stalling; the third must wait for
	// the first to drain.
	r1, _ := l.Submit(0, 32, false)
	r2, _ := l.Submit(0, 32, false)
	r3, _ := l.Submit(0, 32, false)
	if r1 != 0 || r2 != 0 {
		t.Fatalf("posted window stalled too early: %v, %v", r1, r2)
	}
	if r3 != svc {
		t.Fatalf("third packet ready at %v, want %v", r3, svc)
	}
	if st := l.Stats().StallTime; st != Dur(svc) {
		t.Fatalf("stall time %v, want %v", st, svc)
	}
}

func TestLinkSyncWaitsForPriorDrain(t *testing.T) {
	p := testParams()
	l := NewLink(p)
	l.Submit(0, 32, false)
	l.Submit(0, 32, false)
	busy := l.Drained()

	r, _ := l.Submit(0, 4, true)
	if r != busy {
		t.Fatalf("sync submit ready at %v, want %v (all prior drained)", r, busy)
	}
}

func TestLinkSyncBackToBackPacesAtLinkRate(t *testing.T) {
	// The Figure 1 mechanism: back-to-back scattered 4-byte stores pace
	// the CPU at one packet per PacketTime.
	p := testParams()
	l := NewLink(p)
	var now Time
	const n = 100
	for i := 0; i < n; i++ {
		now, _ = l.Submit(now, 4, true)
	}
	perPacket := Dur(now) / (n - 1)
	if want := p.PacketTime(4); perPacket != want {
		t.Fatalf("paced at %v per packet, want %v", perPacket, want)
	}
}

func TestLinkStats(t *testing.T) {
	p := testParams()
	l := NewLink(p)
	l.Submit(0, 4, true)
	l.Submit(0, 32, false)
	s := l.Stats()
	if s.Packets != 2 || s.Bytes != 36 {
		t.Fatalf("stats packets=%d bytes=%d, want 2/36", s.Packets, s.Bytes)
	}
	if s.SizeHist[4] != 1 || s.SizeHist[32] != 1 {
		t.Fatalf("size histogram wrong: %v", s.SizeHist)
	}
	l.ResetStats()
	if got := l.Stats(); got.Packets != 0 || got.Bytes != 0 {
		t.Fatalf("ResetStats left %+v", got)
	}
	if l.Drained() == 0 {
		t.Fatal("ResetStats must keep link state (busyUntil)")
	}
}

func TestLinkDegenerateSubmits(t *testing.T) {
	p := testParams()
	l := NewLink(p)
	if r, d := l.Submit(7, 0, false); r != 7 || d != 7 {
		t.Fatalf("zero-size submit advanced time: %v %v", r, d)
	}
	// Oversized packets are clamped rather than overcharged.
	_, d := l.Submit(0, 64, false)
	if want := Time(p.PacketTime(32) + p.LinkLatency); d != want {
		t.Fatalf("oversize packet delivered at %v, want clamped %v", d, want)
	}
	if got := l.Stats().Bytes; got != 32 {
		t.Fatalf("oversize packet accounted %d bytes, want 32", got)
	}
}
