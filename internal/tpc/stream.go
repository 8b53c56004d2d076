package tpc

import (
	"fmt"
	"math/rand/v2"

	"repro"
)

// stream is one deterministic transaction sequence: the deployment's Begin,
// a workload laid out for it, the stream's generator and its transaction
// index. It is the single transaction-driving code path every driver
// shares — Run, the Runner every drill takes from Stream and the sharded
// runs all advance their workloads through stream.one.
type stream struct {
	begin func() (repro.Tx, error)
	w     Workload
	r     *rand.Rand
	n     int64
}

// one executes the stream's next transaction, committing it or (for
// failure injection) aborting it.
func (s *stream) one(abort bool) error {
	tx, err := s.begin()
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
	if abort {
		return tx.Abort()
	}
	return tx.Commit()
}
