package tpc

import (
	"fmt"

	"repro"
	"repro/internal/mem"
	"repro/internal/sim"
)

// RunSharded drives a sharded cluster from the calling goroutine,
// interleaving the shards' streams transaction by transaction so every
// shard progresses evenly. Each shard gets its own workload instance
// (built by mk for the shard's size) over its own slice of the database
// and its own deterministic generator, keeping every shard's transaction
// stream reproducible.
//
// opts.Txns and opts.Warmup are per shard: the measured total is
// opts.Txns * Shards. The result reports the paper's metric: simulated
// txn/s over the slowest shard's clock.
// opts.AbortEvery, WarmCache and StartMeasured are not supported
// here (they are single-stream concepts).
func RunSharded(sc *repro.ShardedCluster, mk func(dbSize int) (Workload, error), opts Options) (Result, error) {
	if opts.Txns <= 0 {
		return Result{}, fmt.Errorf("tpc: non-positive per-shard transaction count %d", opts.Txns)
	}
	shards := sc.Shards()
	streams := make([]*stream, shards)
	for i := 0; i < shards; i++ {
		w, err := mk(sc.ShardSize())
		if err != nil {
			return Result{}, err
		}
		if err := w.Populate(sc.Shard(i).Load); err != nil {
			return Result{}, fmt.Errorf("tpc: shard %d populate: %w", i, err)
		}
		streams[i] = &stream{
			begin: sc.Shard(i).Begin,
			w:     w,
			r:     NewRand(opts.Seed + uint64(i)),
		}
	}

	// Warmup interleaves the shards too (cache and SAN state carry over
	// into the measured interval, like the single-stream driver).
	if err := roundRobin(streams, opts.Warmup); err != nil {
		return Result{}, fmt.Errorf("tpc: warmup: %w", err)
	}
	sc.ResetMeasurement()

	if err := roundRobin(streams, opts.Txns); err != nil {
		return Result{}, err
	}

	tr := sc.NetTraffic()
	res := Result{
		Workload: streams[0].w.Name(),
		Txns:     opts.Txns * int64(shards),
		Elapsed:  sim.Time(sc.Elapsed().Nanoseconds()) * sim.Time(sim.Nanosecond),
		Net: map[mem.Category]int64{
			mem.CatModified: tr.ModifiedBytes,
			mem.CatUndo:     tr.UndoBytes,
			mem.CatMeta:     tr.MetaBytes,
		},
	}
	if res.Elapsed > 0 {
		res.TPS = float64(res.Txns) / res.Elapsed.Seconds()
	}
	return res, nil
}

// roundRobin runs count transactions on every stream, one transaction per
// stream in turn.
func roundRobin(streams []*stream, count int64) error {
	for k := int64(0); k < count; k++ {
		for i, st := range streams {
			if err := st.one(false); err != nil {
				return fmt.Errorf("tpc: shard %d txn %d: %w", i, k, err)
			}
		}
	}
	return nil
}
