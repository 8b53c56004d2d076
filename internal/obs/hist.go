// Package obs is the repository's dependency-free observability layer:
// a registry of atomic counters, gauges and log-bucketed latency
// histograms, plus a fixed-size structured event ring for control-plane
// traces (failover, lease expiry, epoch bumps, repair phase
// transitions, WAL rotation and fsync, heal attempts).
//
// The layer is built for two hostile environments at once. On the
// simulated side, instruments must not perturb the deterministic sim
// metrics the bench harness pins bit-for-bit, so nothing in this
// package reads a clock or advances one: callers hand in durations and
// timestamps they already computed. On the serving side, instruments
// sit on paths that commit hundreds of thousands of transactions per
// second, so every recording operation is a handful of atomic adds with
// zero allocations; maps and locks appear only at registration and
// scrape time. Every instrument method is nil-receiver-safe, so an
// uninstrumented deployment pays one predictable branch per site.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a concurrency-safe log-bucketed latency histogram — the shared
// wall-clock instrument of the serving stack. Values are recorded in
// nanoseconds into buckets of ~3% relative width (32 sub-buckets per
// power of two), so a p999 read out of the histogram is within a few
// percent of the exact order statistic while Record stays a single atomic
// add — cheap enough to call from thousands of client goroutines without
// coordinating.
//
// The zero value is ready to use, and Record, Snapshot and Reset may be
// called concurrently. A histogram is read only through its Snapshot,
// which answers count, mean and percentile queries and merges with
// others.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
}

// Bucketing: values below histSub land in linear buckets [0, histSub);
// larger values are normalized to a mantissa in [histSub, 2*histSub)
// and indexed by (exponent, mantissa).
const (
	histSubBits = 5
	histSub     = 1 << histSubBits             // 32 sub-buckets per power of two
	histBuckets = histSub * (64 - histSubBits) // covers the full uint64 range
)

// histIndex maps a nanosecond value to its bucket.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1 // v>>exp is in [histSub, 2*histSub)
	return exp*histSub + int(v>>exp)
}

// histValue returns the inclusive upper edge of bucket i.
func histValue(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := i/histSub - 1
	mant := uint64(i%histSub) + histSub
	return (mant+1)<<exp - 1
}

// histLower returns the inclusive lower edge of bucket i.
func histLower(i int) uint64 {
	if i == 0 {
		return 0
	}
	return histValue(i-1) + 1
}

// Record adds one latency sample.
func (h *Hist) Record(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[histIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// interp returns the value at 1-based rank `pos` of the `c` samples in
// bucket i, linearly interpolated across the bucket's span. A rank at
// the bucket's last sample reads the upper edge (the old behavior); a
// rank at its first sample reads just past the lower edge instead of
// jumping a full bucket width, which removes the systematic ~3% upward
// bias the upper-edge-only read had at every bucket boundary.
func interp(i int, pos, c uint64) time.Duration {
	lo, hi := histLower(i), histValue(i)
	if lo >= hi || c <= 1 {
		return time.Duration(hi)
	}
	return time.Duration(float64(lo) + float64(hi-lo)*float64(pos)/float64(c))
}

// percentileRank maps quantile q over n samples to a 1-based rank.
func percentileRank(q float64, n uint64) uint64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return uint64(q*float64(n-1)) + 1
}

// Reset zeroes the histogram. Concurrent with Record it is not a
// point-in-time cut — samples racing the sweep land on either side —
// but the registry serializes Reset against Snapshot, which is the
// coherence scrape deltas need.
func (h *Hist) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Snapshot captures the histogram's current contents as a sparse,
// serializable copy. The per-bucket reads are individually atomic, so a
// snapshot taken concurrently with Record may be mid-sample by one
// count — fine for scraping.
func (h *Hist) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			s.Buckets = append(s.Buckets, HistBucket{I: i, N: c})
		}
	}
	return s
}

// HistBucket is one occupied bucket of a HistSnapshot.
type HistBucket struct {
	// I is the bucket index; N the sample count in it.
	I int    `json:"i"`
	N uint64 `json:"n"`
}

// HistSnapshot is a serializable point-in-time copy of a Hist: the
// form histograms travel in (DB.Metrics, the kvwire METRICS opcode)
// while still answering percentile queries on the far side.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"` // nanoseconds
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Mean returns the snapshot's average sample (0 with no samples).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Percentile returns the latency at quantile q in [0, 1] —
// Percentile(0.5) is the median, Percentile(0.999) the p999 — with the
// ~3% relative resolution of the bucketing, interpolated within the
// landing bucket. Returns 0 with no samples.
func (s HistSnapshot) Percentile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := percentileRank(q, s.Count)
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= rank {
			return interp(b.I, rank-(cum-b.N), b.N)
		}
	}
	return time.Duration(histValue(histBuckets - 1))
}

// Merge folds other into s, summing per-bucket counts. Both operands'
// bucket lists are index-sorted (Snapshot emits them in order); the
// result stays sorted.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	if other.Count == 0 && len(other.Buckets) == 0 {
		return
	}
	merged := make([]HistBucket, 0, len(s.Buckets)+len(other.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(other.Buckets) {
		switch {
		case j >= len(other.Buckets) || (i < len(s.Buckets) && s.Buckets[i].I < other.Buckets[j].I):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || other.Buckets[j].I < s.Buckets[i].I:
			merged = append(merged, other.Buckets[j])
			j++
		default:
			merged = append(merged, HistBucket{I: s.Buckets[i].I, N: s.Buckets[i].N + other.Buckets[j].N})
			i++
			j++
		}
	}
	s.Buckets = merged
	s.Count += other.Count
	s.Sum += other.Sum
}
