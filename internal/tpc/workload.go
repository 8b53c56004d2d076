// Package tpc implements the paper's two benchmarks (Section 2.4):
//
//   - Debit-Credit, a TPC-B variant — branch/teller/account balance updates
//     plus an audit-trail record appended to a 2 MB circular buffer kept in
//     memory.
//   - Order-Entry, a TPC-C variant restricted to the three database-updating
//     transaction types (New-Order, Payment, Delivery).
//
// Record layouts and set-range extents are sized so the per-transaction
// byte profile (modified data, undo data, metadata) lands near the paper's
// Tables 2/5/7 columns; EXPERIMENTS.md records the measured values.
package tpc

import (
	"math/rand/v2"

	"repro/internal/replication"
)

// Workload is one benchmark: a database layout plus a transaction mix.
// Implementations are not safe for concurrent use; the multiprocessor
// experiments give each stream its own Workload over its own Group.
type Workload interface {
	// Name returns the paper's benchmark name.
	Name() string
	// DBSize returns the database size the workload was laid out for.
	DBSize() int
	// Populate loads initial database content through the supplied
	// raw loader (outside the measured interval).
	Populate(load func(off int, data []byte) error) error
	// Txn issues the body of transaction number i on tx: set_range
	// declarations, reads, and in-place writes. The driver commits.
	Txn(r *rand.Rand, tx replication.TxHandle, i int64) error
}

// NewRand returns the deterministic generator used by drivers and tests.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
}
