package tpc

import (
	"fmt"
	"sync"

	"repro"
	"repro/internal/mem"
	"repro/internal/sim"
)

// RunSharded drives a sharded cluster with opts.Clients concurrent client
// goroutines, partitioned by shard: client c owns shards {i : i mod C ==
// c} and interleaves their streams round-robin, so no two clients ever
// contend on one shard's lock. Each shard gets its own workload instance
// (built by mk for the shard's size) over its own slice of the database
// and its own deterministic generator, keeping every shard's transaction
// stream reproducible regardless of goroutine scheduling.
//
// opts.Txns and opts.Warmup are per shard: the measured total is
// opts.Txns * Shards. The result reports the paper's metric: simulated
// txn/s over the slowest shard's clock.
// opts.Oracle, AbortEvery, WarmCache and StartMeasured are not supported
// here (they are single-stream concepts).
func RunSharded(sc *repro.ShardedCluster, mk func(dbSize int) (Workload, error), opts Options) (Result, error) {
	if opts.Txns <= 0 {
		return Result{}, fmt.Errorf("tpc: non-positive per-shard transaction count %d", opts.Txns)
	}
	shards := sc.Shards()
	clients := opts.Clients
	if clients < 1 || clients > shards {
		clients = shards
	}

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
			db: sc.Shard(i),
			w:  w,
			r:  NewRand(opts.Seed + uint64(i)),
		}
	}

	// Warmup runs concurrently too (cache and SAN state carry over into
	// the measured interval, like the single-stream driver).
	if opts.Warmup > 0 {
		if err := driveClients(streams, clients, opts.Warmup); err != nil {
			return Result{}, fmt.Errorf("tpc: warmup: %w", err)
		}
	}
	sc.ResetMeasurement()

	if err := driveClients(streams, clients, opts.Txns); err != nil {
		return Result{}, err
	}

	tr := sc.NetTraffic()
	res := Result{
		Workload: streams[0].w.Name(),
		Txns:     opts.Txns * int64(shards),
		Elapsed:  sim.Time(sc.Elapsed().Nanoseconds()) * sim.Time(sim.Nanosecond),
		Clients:  clients,
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

// driveClients runs count transactions on every stream, clients goroutines
// at a time, client c interleaving its owned streams round-robin.
func driveClients(streams []*stream, clients int, count int64) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Interleave the client's shards transaction by transaction
			// so every shard progresses evenly.
			for k := int64(0); k < count; k++ {
				for i := c; i < len(streams); i += clients {
					if err := streams[i].one(); err != nil {
						errs[c] = fmt.Errorf("tpc: shard %d txn %d: %w", i, k, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
