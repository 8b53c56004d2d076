package tpc

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

// Result summarizes one measured benchmark run.
type Result struct {
	Workload string
	Txns     int64
	Elapsed  sim.Time
	// TPS is transactions per simulated second — the paper's headline
	// metric.
	TPS float64
	// Net is the SAN payload broken down as in paper Tables 2/5/7
	// (zero-valued in standalone runs).
	Net map[mem.Category]int64
}

// NetTotal returns total SAN payload bytes.
func (r *Result) NetTotal() int64 {
	var t int64
	for _, v := range r.Net {
		t += v
	}
	return t
}

// PerTxn returns a per-transaction byte figure.
func (r *Result) PerTxn(v int64) float64 {
	if r.Txns == 0 {
		return 0
	}
	return float64(v) / float64(r.Txns)
}

// Options tunes a driver run.
type Options struct {
	// Txns is the measured transaction count.
	Txns int64
	// Warmup transactions run before measurement starts (cache and SAN
	// state carry over; clocks and counters reset).
	Warmup int64
	// Seed feeds the deterministic generator.
	Seed uint64
	// AbortEvery aborts one transaction in every AbortEvery (0 = never);
	// aborted transactions do not count toward Txns.
	AbortEvery int64
	// StartMeasured, when set, is invoked after warmup, immediately after
	// statistics reset (the SMP experiments attach trace recorders here).
	StartMeasured func()
	// WarmCache sweeps the database through the primary's cache before
	// the warmup transactions, reproducing the steady-state cache
	// occupancy of the paper's multi-million-transaction runs without
	// their wall-clock cost. Measured intervals start after a reset, so
	// the sweep itself is never charged.
	WarmCache bool
}

// Run populates the workload's database, warms up, and drives the measured
// transaction count against the deployment, returning throughput and
// traffic figures in simulated time.
func Run(pair *replication.Group, w Workload, opts Options) (Result, error) {
	if opts.Txns <= 0 {
		return Result{}, fmt.Errorf("tpc: non-positive transaction count %d", opts.Txns)
	}
	if err := w.Populate(pair.Load); err != nil {
		return Result{}, err
	}
	st := &stream{begin: pair.Begin, w: w, r: NewRand(opts.Seed)}

	if opts.WarmCache {
		warmCache(pair, w.DBSize())
	}
	for i := int64(0); i < opts.Warmup; i++ {
		if err := st.one(false); err != nil {
			return Result{}, fmt.Errorf("tpc: warmup txn %d: %w", i, err)
		}
	}
	pair.ResetMeasurement()
	if opts.StartMeasured != nil {
		opts.StartMeasured()
	}

	done := int64(0)
	for done < opts.Txns {
		i := st.n
		abort := opts.AbortEvery > 0 && (i+1)%opts.AbortEvery == 0
		if err := st.one(abort); err != nil {
			return Result{}, fmt.Errorf("tpc: txn %d: %w", i, err)
		}
		if !abort {
			done++
		}
	}

	res := Result{
		Workload: w.Name(),
		Txns:     done,
		Elapsed:  pair.Elapsed(),
		Net:      pair.NetBytes(),
	}
	if res.Elapsed > 0 {
		res.TPS = float64(res.Txns) / res.Elapsed.Seconds()
	}
	return res, nil
}

// warmCache sweeps the database region through the primary's cache
// hierarchy, line by line.
func warmCache(pair *replication.Group, dbSize int) {
	node := pair.Primary()
	db := node.Space.ByName(vista.RegionDB)
	if db == nil {
		return
	}
	const line = 64
	for off := 0; off < dbSize; off += line {
		node.Cache.AccessVM(db.Base+uint64(off), 8, false)
	}
}
