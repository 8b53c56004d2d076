package harness

import (
	"fmt"
	"sync"

	"repro/internal/replication"
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

// cellKey identifies one measured configuration.
type cellKey struct {
	bench  string
	ver    vista.Version
	mode   replication.Mode
	dbSize int
	txns   int64
	warmup int64
	seed   uint64
}

// cellMemo caches cell results: paired exhibits (Tables 1/2, 4/5, 6/7)
// reuse the same runs.
var (
	cellMu   sync.Mutex
	cellMemo = map[cellKey]tpc.Result{}
)

// runCell measures one (benchmark, version, mode) configuration.
func runCell(cfg RunConfig, bench string, ver vista.Version, mode replication.Mode, dbSize int, txns int64) (tpc.Result, error) {
	key := cellKey{bench: bench, ver: ver, mode: mode, dbSize: dbSize,
		txns: txns, warmup: cfg.Warmup, seed: cfg.Seed}
	cellMu.Lock()
	if res, ok := cellMemo[key]; ok {
		cellMu.Unlock()
		return res, nil
	}
	cellMu.Unlock()

	pair, err := replication.NewGroup(replication.Config{
		Mode:  mode,
		Store: vista.Config{Version: ver, DBSize: dbSize},
	})
	if err != nil {
		return tpc.Result{}, err
	}
	w, err := newWorkload(bench, dbSize)
	if err != nil {
		return tpc.Result{}, err
	}
	res, err := tpc.Run(pair, w, tpc.Options{Txns: txns, Warmup: cfg.Warmup, Seed: cfg.Seed, WarmCache: true})
	if err != nil {
		return tpc.Result{}, fmt.Errorf("harness: %s/%s/%s: %w", bench, ver, mode, err)
	}

	cellMu.Lock()
	cellMemo[key] = res
	cellMu.Unlock()
	return res, nil
}

// benchTxns returns the configured transaction count for a benchmark.
func benchTxns(cfg RunConfig, bench string) int64 {
	if bench == benchDC {
		return cfg.DCTxns
	}
	return cfg.OETxns
}
