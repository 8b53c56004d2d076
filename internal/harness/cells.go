package harness

import (
	"fmt"
	"sync"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tpc"
	"repro/internal/vista"
)

// Benchmark selectors.
const (
	benchDC = "Debit-Credit"
	benchOE = "Order-Entry"
)

// newWorkload constructs a fresh workload laid out for dbSize.
func newWorkload(bench string, dbSize int) (tpc.Workload, error) {
	switch bench {
	case benchDC:
		return tpc.NewDebitCredit(dbSize)
	case benchOE:
		return tpc.NewOrderEntry(dbSize)
	default:
		return nil, fmt.Errorf("harness: unknown benchmark %q", bench)
	}
}

// memo is a lock-guarded result cache shared by the measured runs.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// get returns the value stored under key, or runs run and stores what it
// returns.
func (c *memo[K, V]) get(key K, run func() (V, error)) (V, error) {
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := run()
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
	return v, nil
}

// cellKey identifies one measured configuration: the group's effective
// configuration, its Params resolved to a value, and the run's shape.
type cellKey struct {
	bench  string
	group  replication.Config
	params sim.Params
	txns   int64
	warmup int64
	seed   uint64
}

// cellMemo caches cell results: paired exhibits (Tables 1/2, 4/5, 6/7) reuse
// the same runs.
var cellMemo = memo[cellKey, tpc.Result]{m: map[cellKey]tpc.Result{}}

// groupConfig is a paper deployment: one engine version under one backup
// scheme, the default backup count and commit safety, and params (nil for
// sim.Default()).
func groupConfig(ver vista.Version, mode replication.Mode, dbSize int, params *sim.Params) replication.Config {
	return replication.Config{Mode: mode, Store: vista.Config{Version: ver, DBSize: dbSize}, Params: params}
}

// runCell measures txns transactions of one benchmark on a fresh group
// over a warmed cache: the one runner behind every throughput cell.
func runCell(cfg RunConfig, bench string, group replication.Config, txns int64) (tpc.Result, error) {
	key := cellKey{bench: bench, group: group, params: sim.Default(), txns: txns, warmup: cfg.Warmup, seed: cfg.Seed}
	if group.Params != nil {
		key.group.Params, key.params = nil, *group.Params
	}
	return cellMemo.get(key, func() (tpc.Result, error) {
		pair, err := replication.NewGroup(group)
		if err != nil {
			return tpc.Result{}, err
		}
		w, err := newWorkload(bench, group.Store.DBSize)
		if err != nil {
			return tpc.Result{}, err
		}
		res, err := tpc.Run(pair, w, tpc.Options{Txns: txns, Warmup: cfg.Warmup, Seed: cfg.Seed, WarmCache: true})
		if err != nil {
			return tpc.Result{}, fmt.Errorf("harness: %s/%s/%s: %w", bench, group.Store.Version, group.Mode, err)
		}
		return res, nil
	})
}

// benchTxns returns the configured transaction count for a benchmark.
func benchTxns(cfg RunConfig, bench string) int64 {
	if bench == benchDC {
		return cfg.DCTxns
	}
	return cfg.OETxns
}
