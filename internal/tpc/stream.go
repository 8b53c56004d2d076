package tpc

import (
	"fmt"
	"math/rand/v2"

	"repro"
)

// FaultDB is the driver-facing surface of a deployment under test: the
// full data plane (repro.DB) plus the fault-injection surface
// (repro.Admin); *repro.Cluster satisfies it.
type FaultDB interface {
	repro.DB
	repro.Admin
}

// stream is one deterministic transaction sequence against a DB: the
// deployment, a workload laid out for it, the stream's generator and its
// transaction index. It is the single transaction-driving code path every
// facade-level driver shares — availability, chaos and the sharded
// multi-client runs all advance their workloads through stream.one.
type stream struct {
	db repro.DB
	w  Workload
	r  *rand.Rand
	n  int64
}

// one executes the stream's next transaction.
func (s *stream) one() error {
	tx, err := s.db.Begin()
	if err != nil {
		return err
	}
	if err := s.w.Txn(s.r, tx, s.n); err != nil {
		if abortErr := tx.Abort(); abortErr != nil {
			return fmt.Errorf("%w (abort also failed: %v)", err, abortErr)
		}
		return err
	}
	s.n++
	return tx.Commit()
}
