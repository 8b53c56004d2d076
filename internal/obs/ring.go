package obs

import "sync"

// Event kinds emitted by the instrumented packages. Kinds are dotted
// constants so a consumer can prefix-filter (all "repair." events, all
// "wal." events); the A/B payload words are kind-specific and
// documented in DESIGN.md's catalog.
const (
	EventDetectSuspect = "detect.suspect" // node suspected; A = epoch
	EventDetectDead    = "detect.dead"    // node declared dead; A = epoch
	EventLeaseExpired  = "lease.expired"  // admission fenced; A = epoch
	EventEpochBump     = "epoch.bump"     // membership era advanced; A = new epoch
	EventFailover      = "failover"       // A = new epoch, B = promoted backup index
	EventRepairStart   = "repair.start"   // A = chunks to copy
	EventRepairCatchup = "repair.catchup" // copy done, redo catch-up begins; A = copied bytes
	EventRepairCutover = "repair.cutover" // replica enrolled; A = epoch
	EventRepairAbort   = "repair.abort"   // job abandoned (source died mid-copy)
	EventWALRotate     = "wal.rotate"     // checkpoint snapshot + log rotation; A = synced seq
	EventWALFsync      = "wal.fsync"      // A = batched frames, B = bytes (sampled: first sync and every 1024th)
	EventWALTruncate   = "wal.truncate"   // torn tail dropped on recovery; A = bytes
	EventHealRetry     = "heal.retry"     // kvserver's heal of the store failed; A = attempt since the last success
	EventHealed        = "heal.ok"        // kvserver reopened the store; A = attempts it took

	EventRebalanceStart = "rebalance.start" // elastic rebalance begins; A = planned moves, B = planned bytes
	EventRangeCutover   = "range.cutover"   // one range's routing flipped; A = new placement epoch, B = range start offset
	EventRebalanceDone  = "rebalance.done"  // plan drained; A = ranges moved, B = bytes shipped
)

// RingSize is the fixed capacity of an event ring. Older events are
// overwritten; Seq numbers stay monotone so a scraper can detect loss.
const RingSize = 1024

// Event is one structured trace record. At is nanoseconds in the
// producer's time domain: simulated time for replication-tier events,
// host wall time for server-tier events (the Kind implies which).
type Event struct {
	Seq   uint64 `json:"seq"`
	At    int64  `json:"at"`
	Kind  string `json:"kind"`
	Node  int    `json:"node"`        // replica index, -1 when not applicable
	Shard int    `json:"shard"`       // stamped by the sharded facade
	A     uint64 `json:"a,omitempty"` // kind-specific detail words
	B     uint64 `json:"b,omitempty"`
}

// Ring is a fixed-size overwrite-oldest buffer of Events. Emit takes a
// mutex — events fire on control paths (failovers, repairs, fsyncs),
// not per-transaction — and never allocates: the buffer is a fixed
// array and Kind strings are constants.
type Ring struct {
	mu  sync.Mutex
	seq uint64 // total events ever emitted
	buf [RingSize]Event
}

// Emit appends one event.
func (r *Ring) Emit(kind string, at int64, node int, a, b uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.seq%RingSize] = Event{Seq: r.seq, At: at, Kind: kind, Node: node, A: a, B: b}
	r.seq++
	r.mu.Unlock()
}

// Len returns the number of events currently held (≤ RingSize).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq < RingSize {
		return int(r.seq)
	}
	return RingSize
}

// Snapshot appends the ring's events, oldest first, to dst and returns
// the extended slice.
func (r *Ring) Snapshot(dst []Event) []Event {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := uint64(0)
	if r.seq > RingSize {
		start = r.seq - RingSize
	}
	for s := start; s < r.seq; s++ {
		dst = append(dst, r.buf[s%RingSize])
	}
	return dst
}
