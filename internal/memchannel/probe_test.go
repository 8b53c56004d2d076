package memchannel

import (
	"testing"

	"repro/internal/sim"
)

func TestMeasureBandwidthMatchesPaperFigure1(t *testing.T) {
	p := sim.Default()
	points, err := MeasureBandwidth(&p, 1<<20, []int{4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		size     int
		min, max float64
	}{
		{4, 13, 15},  // paper: ~14 MB/s
		{8, 24, 28},  // paper: ~26 MB/s
		{16, 45, 50}, // paper: ~48 MB/s
		{32, 78, 82}, // paper: 80 MB/s
	}
	for i, w := range want {
		got := points[i]
		if got.PacketBytes != w.size {
			t.Fatalf("point %d is %dB", i, got.PacketBytes)
		}
		if got.MBPerSec < w.min || got.MBPerSec > w.max {
			t.Errorf("%dB packets: %.1f MB/s, want [%v,%v]", w.size, got.MBPerSec, w.min, w.max)
		}
	}
	// Monotonic: larger packets, more bandwidth.
	for i := 1; i < len(points); i++ {
		if points[i].MBPerSec <= points[i-1].MBPerSec {
			t.Fatalf("bandwidth not monotonic: %+v", points)
		}
	}
}

func TestMeasureLatencyMatchesPaper(t *testing.T) {
	p := sim.Default()
	lat, err := MeasureLatency(&p)
	if err != nil {
		t.Fatal(err)
	}
	if got := lat.Nanoseconds(); got < 3100 || got > 3500 {
		t.Fatalf("4-byte write latency %.0fns, want ~3300ns (paper: 3.3us)", got)
	}
}
