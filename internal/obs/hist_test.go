package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistBucketRoundTrip: every bucket's representative value indexes
// back into the same bucket, and indices are monotone in the value.
func TestHistBucketRoundTrip(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		v := histValue(i)
		if got := histIndex(v); got != i {
			t.Fatalf("histIndex(histValue(%d)) = %d", i, got)
		}
		if lo := histLower(i); histIndex(lo) != i {
			t.Fatalf("histIndex(histLower(%d)) = %d", i, histIndex(lo))
		}
	}
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, 1 << 40, math.MaxUint64 / 2} {
		idx := histIndex(v)
		if idx < prev {
			t.Fatalf("histIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

// TestHistPercentiles: a known uniform population reads back within the
// bucketing's relative resolution.
func TestHistPercentiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 10_000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 10_000 {
		t.Fatalf("count = %d", s.Count)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 5000 * time.Microsecond},
		{0.99, 9900 * time.Microsecond},
		{0.999, 9990 * time.Microsecond},
	}
	for _, c := range checks {
		got := s.Percentile(c.q)
		rel := math.Abs(float64(got-c.want)) / float64(c.want)
		if rel > 0.05 {
			t.Errorf("p%g = %v, want ~%v (rel err %.3f)", c.q*100, got, c.want, rel)
		}
	}
	if m := s.Mean(); m < 4500*time.Microsecond || m > 5500*time.Microsecond {
		t.Errorf("mean = %v, want ~5ms", m)
	}
}

// TestHistInterpolation pins the bucket-boundary fix: with every sample
// in one wide bucket, quantiles spread across the bucket's span instead
// of all reporting the inclusive upper edge (the old behavior, a
// systematic ~3% upward bias), and the extremes stay inside the bucket.
func TestHistInterpolation(t *testing.T) {
	var h Hist
	v := 1000 * time.Microsecond // one log bucket holds all samples
	for i := 0; i < 1000; i++ {
		h.Record(v)
	}
	i := histIndex(uint64(v))
	lo, hi := time.Duration(histLower(i)), time.Duration(histValue(i))
	s := h.Snapshot()
	p01, p50, p999 := s.Percentile(0.01), s.Percentile(0.5), s.Percentile(0.999)
	if p01 < lo || p999 > hi {
		t.Fatalf("percentiles escaped the bucket: p01=%v p999=%v, bucket [%v, %v]", p01, p999, lo, hi)
	}
	if !(p01 < p50 && p50 < p999) {
		t.Fatalf("percentiles not interpolated within the bucket: p01=%v p50=%v p999=%v", p01, p50, p999)
	}
	mid := lo + (hi-lo)/2
	if d := p50 - mid; d < -(hi-lo)/4 || d > (hi-lo)/4 {
		t.Fatalf("p50 = %v, want near bucket midpoint %v", p50, mid)
	}
}

// TestHistSnapshotMerge: merging two histograms' sparse snapshots equals
// the snapshot of one histogram that recorded both populations.
func TestHistSnapshotMerge(t *testing.T) {
	var a, b, both Hist
	for i := 1; i <= 500; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
		both.Record(time.Duration(i) * time.Microsecond)
	}
	for i := 400; i <= 900; i++ {
		b.Record(time.Duration(i) * time.Millisecond)
		both.Record(time.Duration(i) * time.Millisecond)
	}
	sa, sb := a.Snapshot(), both.Snapshot()
	sa.Merge(b.Snapshot())
	if sa.Count != sb.Count || sa.Sum != sb.Sum {
		t.Fatalf("merged snapshot count/sum = %d/%d, want %d/%d", sa.Count, sa.Sum, sb.Count, sb.Sum)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := sa.Percentile(q), sb.Percentile(q); got != want {
			t.Fatalf("merged snapshot p%g = %v, one histogram's %v", q*100, got, want)
		}
	}
	for i := 1; i < len(sa.Buckets); i++ {
		if sa.Buckets[i-1].I >= sa.Buckets[i].I {
			t.Fatalf("merged buckets not sorted at %d", i)
		}
	}
}

// TestHistMergeConcurrent: concurrent recording plus a snapshot merge
// preserves the total sample count and sum.
func TestHistMergeConcurrent(t *testing.T) {
	var a, b Hist
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Record(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	b.Record(time.Millisecond)
	sa, sb := a.Snapshot(), b.Snapshot()
	sb.Merge(sa)
	if sb.Count != 8001 {
		t.Fatalf("merged count = %d, want 8001", sb.Count)
	}
	if want := sa.Sum + uint64(time.Millisecond); sb.Sum != want {
		t.Fatalf("merged sum = %d, want %d", sb.Sum, want)
	}
	if sb.Percentile(1) < time.Millisecond {
		t.Fatalf("max percentile %v below the merged max", sb.Percentile(1))
	}
}
