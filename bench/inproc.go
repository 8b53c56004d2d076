package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro"
	"repro/internal/tpc"
)

// commitBatch is the deployment's group commit: sixteen transactions share
// one publish of the redo ring and one wait for the quorum's acknowledgement.
// A transaction is committed at the safety the deployment promises when its
// batch flushes, so the batch is what this workload times: from the first
// Begin to the return of the Commit that flushes. (The Begin→Commit time of
// one transaction is mostly that of a commit which only joins a batch; its
// median came in two modes, 2.6 and 3.5 µs, from one process to the next.)
const commitBatch = 16

// inprocRun is the Debit-Credit workload set up and ready to measure: the
// paper's benchmark through the public facade, one goroutine, nothing of
// kv or the wire involved.
type inprocRun struct {
	db     *repro.Cluster
	w      *tpc.DebitCredit
	rng    *rand.Rand
	seed   uint64
	warmup int64
	next   int64 // index of the next transaction
	// base is the deployment's commit counter when set-up ended: resetting
	// the measurement does not zero it.
	base   int64
	limit  time.Duration
	tracer *tracer
}

func (r *inprocRun) setTracer(t *tracer) { r.tracer = t }

func (r *inprocRun) close() {}

func setUpInproc(w workload, sc scale, seed uint64, traced bool) (*inprocRun, error) {
	db, err := repro.New(deployment(w, traced))
	if err != nil {
		return nil, err
	}
	dc, err := tpc.NewDebitCredit(w.dbMiB << 20)
	if err != nil {
		return nil, err
	}
	if err := dc.Populate(db.Load); err != nil {
		return nil, err
	}
	r := &inprocRun{db: db, w: dc, rng: tpc.NewRand(seed), seed: seed, warmup: int64(sc.warmup), limit: w.limit}
	for r.next < r.warmup {
		if err := r.txn(); err != nil {
			return nil, fmt.Errorf("warm-up transaction %d: %w", r.next, err)
		}
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}
	db.ResetMeasurement()
	r.base = db.Stats().Commits
	return r, nil
}

// txn runs the next transaction.
func (r *inprocRun) txn() error {
	tx, err := r.db.Begin()
	if err != nil {
		return err
	}
	if err := r.w.Txn(r.rng, tx, r.next); err != nil {
		return errors.Join(err, tx.Abort())
	}
	r.next++
	return tx.Commit()
}

// tracedTxn is txn with a span around each call into the facade.
func (r *inprocRun) tracedTxn(id uint64) error {
	t0 := time.Now()
	tx, err := r.db.Begin()
	t1 := time.Now()
	if err != nil {
		return err
	}
	if err := r.w.Txn(r.rng, tx, r.next); err != nil {
		return errors.Join(err, tx.Abort())
	}
	t2 := time.Now()
	r.next++
	err = tx.Commit()
	t3 := time.Now()
	tr := r.tracer
	tr.add(id,
		tr.span("", "txn", t0, t3),
		tr.span("txn", "repro.Begin", t0, t1),
		tr.span("txn", "repro.Write", t1, t2),
		tr.span("txn", "repro.Commit", t2, t3))
	return err
}

// loop runs commit batches for the length of the window and times each.
// counts[i] is the number of transactions that finished in sub-window i. In
// a traced batch one transaction carries spans; which one moves through the
// batch's positions, the flushing one included.
//
// The sim-domain numbers are read into m after the first sc.simTxns
// transactions, a count and not a time: one goroutine and a seeded
// generator make them the same to the last digit on every run of one seed,
// however fast the machine. Every batch before that point has flushed, so
// the deployment has committed exactly those transactions. A machine too
// slow to run them within the window runs past it; the extra batches count
// in no sub-window.
func (r *inprocRun) loop(start time.Time, sc scale, m *measured) (recs []rec, counts []int64, err error) {
	counts = make([]int64, sc.subs)
	length := time.Duration(sc.subs) * sc.sub
	snapped := false
	for {
		if done := r.next - r.warmup; !snapped && done >= sc.simTxns {
			if got := r.db.Stats().Commits - r.base; got != done {
				return nil, nil, fmt.Errorf("the deployment counts %d commits since set-up, the benchmark ran %d transactions", got, done)
			}
			m.snapshotSim(r.db, done)
			snapped = true
		}
		t0 := time.Now()
		if snapped && t0.Sub(start) >= length {
			return recs, counts, nil
		}
		id := r.tracer.sample()
		for i := range commitBatch {
			if id != 0 && i == int(id/traceEvery%commitBatch) {
				err = r.tracedTxn(id)
			} else {
				err = r.txn()
			}
			if err != nil {
				return nil, nil, fmt.Errorf("transaction %d: %w", r.next, err)
			}
		}
		t1 := time.Now()
		recs = append(recs, rec{due: int64(t0.Sub(start)), lat: clampLat(t1.Sub(t0)), kind: opPut, ok: true})
		if i := int(t1.Sub(start) / sc.sub); i < sc.subs {
			counts[i] += commitBatch
		}
	}
}

// check compares the database, byte for byte, with the image internal/tpc's
// reference executor reaches by running the same transactions on a plain
// byte array. Equal images mean no committed transaction was lost, torn or
// applied twice, and so that accounts, tellers and branches still balance.
func (r *inprocRun) check() error {
	if err := r.db.Flush(); err != nil {
		return err
	}
	ref, err := tpc.NewDebitCredit(r.w.DBSize())
	if err != nil {
		return err
	}
	want, err := tpc.Replay(ref, tpc.Options{Seed: r.seed, Warmup: r.warmup}, r.next-r.warmup)
	if err != nil {
		return err
	}
	got := make([]byte, len(want))
	r.db.ReadRaw(0, got)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("database differs from the reference image after %d transactions", r.next)
	}
	return nil
}
