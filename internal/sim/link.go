package sim

// Link models one direction of the Memory Channel SAN as a FIFO server:
// packets are serialized one at a time, each occupying the link for
// Params.PacketTime(size). A bounded "posted" window models the PCI posted
// writes plus adapter queue: once PostedDepth packets are outstanding the
// submitting CPU stalls until the oldest one drains.
//
// A Link may be shared by several submitting streams (the SMP experiments);
// callers must then present submissions in nondecreasing time order, which
// the replay engine guarantees. The zero value is not usable; construct
// with NewLink.
type Link struct {
	params *Params

	busyUntil Time
	// window holds the completion (serialization-finished) times of the
	// most recent submissions, bounded by PostedDepth; it acts as the
	// posted-write occupancy window.
	window []Time

	stats LinkStats
}

// LinkStats accumulates link-level counters for an experiment.
type LinkStats struct {
	Packets int64
	Bytes   int64
	// SizeHist counts packets by payload size (index = bytes, 0..MaxPacket).
	SizeHist []int64
	// Busy is the total time the link spent serializing packets.
	Busy Dur
	// StallTime is the cumulative time submitting CPUs spent stalled on
	// the posted-write window.
	StallTime Dur
}

// NewLink returns a link with the given parameters.
func NewLink(p *Params) *Link {
	return &Link{
		params: p,
		window: make([]Time, 0, p.PostedDepth),
		stats:  LinkStats{SizeHist: make([]int64, p.MaxPacket+1)},
	}
}

// Submit serializes one packet submitted at time now.
//
// sync distinguishes the two retirement paths of the modelled hardware:
//
//   - sync=false — a naturally full 32-byte write buffer retiring through
//     the posted-write pipeline. The CPU stalls only when PostedDepth
//     packets are already in flight. This is the path sequential stores
//     (Version 3's log, the active backup's ring) enjoy.
//   - sync=true — a forced eviction of a partially filled buffer (buffer
//     pressure from scattered stores, or an explicit memory barrier). The
//     CPU must wait for the bus to accept the partial line, i.e. until
//     every earlier packet has been serialized. Back-to-back scattered
//     4-byte stores therefore pace the CPU at one packet per PacketTime —
//     exactly the paper's Figure 1 measurement of 14 MB/s.
//
// It returns readyAt, the time at which the submitting CPU may proceed,
// and deliveredAt, the time at which the packet's payload is visible in
// the remote node's physical memory.
func (l *Link) Submit(now Time, size int, sync bool) (readyAt, deliveredAt Time) {
	if size <= 0 {
		return now, now
	}
	if size > l.params.MaxPacket {
		// The write-buffer layer never produces oversized packets; guard
		// against misuse by splitting the charge conservatively.
		size = l.params.MaxPacket
	}

	readyAt = now
	if sync {
		// Wait for all earlier packets to drain; this packet then starts
		// immediately and serializes in the background.
		if l.busyUntil > readyAt {
			l.stats.StallTime += Dur(l.busyUntil - readyAt)
			readyAt = l.busyUntil
		}
	} else if len(l.window) >= l.params.PostedDepth {
		oldest := l.window[0]
		// Pop by shifting in place: re-slicing forward and re-appending
		// would walk the backing array and allocate on every PostedDepth
		// packets, putting the allocator on the steady-state commit path.
		copy(l.window, l.window[1:])
		l.window = l.window[:len(l.window)-1]
		if oldest > readyAt {
			l.stats.StallTime += Dur(oldest - readyAt)
			readyAt = oldest
		}
	}

	start := readyAt
	if l.busyUntil > start {
		start = l.busyUntil
	}
	svc := l.params.PacketTime(size)
	done := start + Time(svc)
	l.busyUntil = done
	if !sync {
		l.window = append(l.window, done)
	}

	l.stats.Packets++
	l.stats.Bytes += int64(size)
	l.stats.SizeHist[size]++
	l.stats.Busy += svc

	return readyAt, done + Time(l.params.LinkLatency)
}

// SubmitBulk serializes a bulk background stream — the state transfer of an
// online repair — submitted at time now: full-size packets back to back,
// occupying the link like any other traffic (a later packet queues behind
// them, so how much a caller submits at one instant, and when, decides what
// the commit stream pays for a transfer) but without stalling the submitting
// CPU, which is the repair copier, not the transaction stream. Returns the
// delivery time of the stream's last byte.
func (l *Link) SubmitBulk(now Time, bytes int) Time {
	if bytes <= 0 {
		return now
	}
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	full := bytes / l.params.MaxPacket
	rem := bytes % l.params.MaxPacket
	svc := Dur(full) * l.params.PacketTime(l.params.MaxPacket)
	packets := int64(full)
	l.stats.SizeHist[l.params.MaxPacket] += int64(full)
	if rem > 0 {
		svc += l.params.PacketTime(rem)
		l.stats.SizeHist[rem]++
		packets++
	}
	done := start + Time(svc)
	l.busyUntil = done
	l.stats.Packets += packets
	l.stats.Bytes += int64(bytes)
	l.stats.Busy += svc
	return done + Time(l.params.LinkLatency)
}

// Drained returns the time at which every packet submitted so far has been
// serialized onto the link.
func (l *Link) Drained() Time { return l.busyUntil }

// Stats returns a copy of the accumulated counters.
func (l *Link) Stats() LinkStats {
	s := l.stats
	s.SizeHist = append([]int64(nil), l.stats.SizeHist...)
	return s
}

// ResetStats clears the counters but keeps the link state (busy time and
// posted window), so a measurement phase can exclude warm-up traffic.
func (l *Link) ResetStats() {
	l.stats = LinkStats{SizeHist: make([]int64, l.params.MaxPacket+1)}
}
