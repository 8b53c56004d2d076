package main

import (
	"math"
	"slices"
	"time"
)

// Operation kinds a record can carry. A Debit-Credit transaction is a put.
const (
	opGet uint8 = iota
	opPut
)

// rec is one measured operation. due places it on the run's timeline in
// nanoseconds since the window started: when it was issued in a closed
// loop, when it fell due in an open loop. It completed at due+lat.
type rec struct {
	due  int64
	lat  uint32 // nanoseconds, clamped at the type's range (4.29 s)
	kind uint8
	ok   bool
}

func clampLat(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// percentile returns the q-quantile of an ascending slice, interpolating
// linearly between the two nearest ranks. Zero for an empty slice.
func percentile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return float64(sorted[n-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*(float64(sorted[lo+1])-float64(sorted[lo]))
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). Zero for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive method), which
// is what the driver computes spreads with. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0, 4] at the ends: Python extrapolates there
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// subWindow is what one sub-window of a run measured. An operation is
// attempted in the sub-window it fell due in and completed in the one it
// finished in: the operations due during an outage count against the
// sub-window of the outage however late they finish.
type subWindow struct {
	attempted int     // operations due in this sub-window
	completed int     // operations that succeeded and finished in it
	opsPerS   float64 // completed ÷ sub-window length
	opP50us   float64 // median latency of the completed operations
	getP50us  float64 // of the completed GETs (0 without GETs)
	putP50us  float64 // of the completed PUTs
	within    float64 // due here and finished within the limit ÷ attempted
	cpuUsOp   float64 // process CPU ÷ completed, filled in by the caller
}

// window is the whole measured window, cut into sub-windows.
type window struct {
	subs      []subWindow
	attempted int
	failed    int
	// lats holds the latency of every operation completed in the window,
	// ascending: the tail percentiles the traced run reports come from the
	// whole window.
	lats, getLats, putLats []uint32
}

// analyse cuts the records of all workers into n sub-windows of length sub.
// An operation that finished after the last sub-window — a closed loop's
// last ones do — counts as attempted and as completed nowhere. counts, when
// not nil, gives the operations each sub-window really ran where recs is
// one record for several of them (the in-process workload times a commit
// batch); shares and medians then come from the records, rates from the
// counts.
func analyse(recs [][]rec, n int, sub time.Duration, limit time.Duration, counts []int64) window {
	type bucket struct {
		attempted, within, completed int
		all, get, put                []uint32
	}
	bs := make([]bucket, n)
	var w window
	for _, rs := range recs {
		for _, r := range rs {
			w.attempted++
			if !r.ok {
				w.failed++
			}
			if i := int(r.due / int64(sub)); r.due >= 0 && i < n {
				bs[i].attempted++
				if r.ok && time.Duration(r.lat) <= limit {
					bs[i].within++
				}
			}
			i := int((r.due + int64(r.lat)) / int64(sub))
			if !r.ok || r.due < 0 || i >= n {
				continue
			}
			b := &bs[i]
			b.completed++
			b.all = append(b.all, r.lat)
			if r.kind == opGet {
				b.get = append(b.get, r.lat)
			} else {
				b.put = append(b.put, r.lat)
			}
		}
	}
	for i := range bs {
		b := &bs[i]
		slices.Sort(b.all)
		slices.Sort(b.get)
		slices.Sort(b.put)
		s := subWindow{
			attempted: b.attempted,
			completed: b.completed,
			opP50us:   percentile(b.all, 0.5) / 1e3,
			getP50us:  percentile(b.get, 0.5) / 1e3,
			putP50us:  percentile(b.put, 0.5) / 1e3,
		}
		if b.attempted > 0 {
			s.within = float64(b.within) / float64(b.attempted)
		}
		if counts != nil {
			s.attempted, s.completed = int(counts[i]), int(counts[i])
		}
		s.opsPerS = float64(s.completed) / sub.Seconds()
		w.subs = append(w.subs, s)
		w.lats = append(w.lats, b.all...)
		w.getLats = append(w.getLats, b.get...)
		w.putLats = append(w.putLats, b.put...)
	}
	if counts != nil {
		w.attempted = 0
		for _, c := range counts {
			w.attempted += int(c)
		}
	}
	slices.Sort(w.lats)
	slices.Sort(w.getLats)
	slices.Sort(w.putLats)
	return w
}

// subMedian is the run's value of a wall-clock metric: the median of its
// per-sub-window values. An episode of CPU steal from a neighbour lowers
// one sub-window and leaves the median where it was; a whole-run mean would
// carry it.
func (w window) subMedian(f func(subWindow) float64) float64 {
	vals := make([]float64, len(w.subs))
	for i, s := range w.subs {
		vals[i] = f(s)
	}
	return median(vals)
}
