package memchannel

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// BandwidthPoint is one sample of the paper's Figure 1: effective
// process-to-process bandwidth when the store pattern produces packets of
// the given size.
type BandwidthPoint struct {
	PacketBytes int
	MBPerSec    float64
}

// MeasureBandwidth reproduces the paper's stride test (Section 2.3): large
// regions are written with varying strides, so a stride of one fills whole
// 32-byte blocks (32-byte packets), a stride of two writes every other
// 8-byte word (16-byte packets), and so on. It returns one point per
// requested packet size; sizes must divide blockSize and be multiples of 8.
// The error is the probe region's mapping failure.
func MeasureBandwidth(p *sim.Params, totalBytes int, packetSizes []int) ([]BandwidthPoint, error) {
	out := make([]BandwidthPoint, 0, len(packetSizes))
	for _, size := range packetSizes {
		mbps, err := measureOne(p, totalBytes, size)
		if err != nil {
			return nil, err
		}
		out = append(out, BandwidthPoint{PacketBytes: size, MBPerSec: mbps})
	}
	return out, nil
}

// measureOne writes enough strided data to send totalBytes of payload and
// returns payload MB per simulated second.
func measureOne(p *sim.Params, totalBytes, packetBytes int) (float64, error) {
	// A window large enough that the stride pattern never revisits a
	// block within the run; revisits would coalesce across iterations
	// and distort packet sizes.
	const window = 1 << 20
	node, link, err := probeNode(p, window)
	if err != nil {
		return 0, err
	}

	storeSize := 8
	if packetBytes < storeSize {
		storeSize = packetBytes
	}
	storesPerBlock := packetBytes / storeSize
	payload := make([]byte, storeSize)
	sent := 0
	addr := uint64(0)
	for sent < totalBytes {
		// Write storesPerBlock contiguous words at the head of a block,
		// then skip to the next block: exactly the paper's strided
		// store loop.
		for w := 0; w < storesPerBlock && sent < totalBytes; w++ {
			node.StoreIO(addr+uint64(storeSize*w), payload, mem.CatModified)
			sent += storeSize
		}
		addr += blockSize
		if addr+blockSize > window {
			addr = 0
		}
	}
	node.Fence()
	// Steady-state bandwidth is link-bound: the CPU issues stores far
	// faster than the SAN drains them, so elapsed time is the link drain
	// time.
	elapsed := link.Drained()
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(sent) / 1e6 / elapsed.Seconds(), nil
}

// MeasureLatency returns the simulated one-way latency of a single 4-byte
// write on an otherwise idle network (paper: 3.3 microseconds). The error
// is the probe region's mapping failure.
func MeasureLatency(p *sim.Params) (sim.Dur, error) {
	node, _, err := probeNode(p, 64)
	if err != nil {
		return 0, err
	}
	node.StoreIO(0, []byte{1, 2, 3, 4}, mem.CatModified)
	node.Fence()
	return sim.Dur(node.LastDelivered()), nil
}

// probeNode returns a node on a link of its own whose first n bytes of I/O
// space are mapped onto a fresh remote region.
func probeNode(p *sim.Params, n int) (*Node, *sim.Link, error) {
	link := sim.NewLink(p)
	node := NewNode(p, new(sim.Clock), link)
	region, err := mem.NewRegion("probe", 0, n)
	if err == nil {
		err = node.Map(Mapping{SrcBase: 0, Size: n, To: []Target{{Dst: region}}})
	}
	if err != nil {
		return nil, nil, err
	}
	return node, link, nil
}
