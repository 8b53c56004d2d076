package tpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/kv"
)

// RunKV drives a YCSB-style key-value workload against any repro.DB
// through the kv layer: the store is formatted inside the deployment's
// replicated bytes, preloaded with a keyspace, and then hit with one of
// three operation mixes modeled on the standard YCSB core workloads:
//
//   - read-heavy (YCSB-B): 95% point reads, 5% value updates
//   - update-heavy (YCSB-A): 50% point reads, 50% value updates
//   - scan (YCSB-E): 95% short range scans, 5% fresh-key inserts
//
// Because the driver sees only the DB interface, the same run works over
// any shard count — the measured difference is exactly the kv layer's
// (every mutation is one transaction on one shard, so more shards are
// more commit streams running side by side).

// The YCSB-style operation mixes RunKV accepts.
const (
	MixReadHeavy   = "read-heavy"
	MixUpdateHeavy = "update-heavy"
	MixScan        = "scan"
)

// KVMixes lists the mixes in reporting order.
func KVMixes() []string { return []string{MixReadHeavy, MixUpdateHeavy, MixScan} }

// The kv runs' fixed shape: the value payload per record (the YCSB default
// field size) and the range-scan length of the scan mix.
const (
	kvValueSize = 100
	kvScanLen   = 10
)

// KVOptions tunes a RunKV run.
type KVOptions struct {
	// Mix is one of MixReadHeavy, MixUpdateHeavy, MixScan (default
	// read-heavy).
	Mix string
	// Records is the preloaded keyspace size (default 2000).
	Records int
	// Ops is the measured operation count.
	Ops int64
	// Warmup operations run before measurement starts.
	Warmup int64
	// Seed feeds the deterministic generator.
	Seed uint64
	// ReadMode routes the mix's point reads and scans through replica
	// read views: "" or "primary" (the default — every read serialized
	// through the primary, bit-for-bit today's run), "ryw"
	// (read-your-writes via the session's commit token), "bounded"
	// (bounded staleness within StalenessBound), or "quorum" (majority
	// reads with read repair). See ParseReadMode.
	ReadMode string
	// StalenessBound is the "bounded" mode's advertised lag bound in
	// commit sequences (default 64).
	StalenessBound uint64
}

func (o KVOptions) withDefaults() KVOptions {
	if o.Mix == "" {
		o.Mix = MixReadHeavy
	}
	if o.Records <= 0 {
		o.Records = 2000
	}
	if o.StalenessBound == 0 {
		o.StalenessBound = 64
	}
	return o
}

// ParseReadMode maps a RunKV/flag spelling to the facade's read mode.
func ParseReadMode(s string) (repro.ReadMode, error) {
	switch s {
	case "", "primary":
		return repro.ReadPrimary, nil
	case "ryw", "read-your-writes":
		return repro.ReadYourWrites, nil
	case "bounded":
		return repro.ReadBounded, nil
	case "quorum":
		return repro.ReadQuorum, nil
	default:
		return repro.ReadPrimary, fmt.Errorf("tpc: unknown read mode %q (want primary, ryw, bounded or quorum)", s)
	}
}

// KVResult is one measured key-value run.
type KVResult struct {
	Mix string
	// Ops is the measured operation count; the per-kind counters break
	// it down (ScanItems counts entries the scans visited).
	Ops                            int64
	Reads, Updates, Inserts, Scans int64
	ScanItems                      int64
	// Elapsed is the simulated time of the measured interval; OPS the
	// headline operations per simulated second.
	Elapsed time.Duration
	OPS     float64
	// Net is the SAN traffic of the measured interval.
	Net repro.Traffic
	// Keys is the live keyspace size at the end of the run.
	Keys int
	// ReadMode echoes the run's read routing ("primary" when unset).
	ReadMode string
	// ReplicaReads and PrimaryReads split the measured reads and scans by
	// who served them (replica modes only; the default mix leaves both 0
	// and counts reads under Reads/Scans alone). Repaired totals the
	// quorum-read laggards pumped by read repair.
	ReplicaReads, PrimaryReads, Repaired int64
	// StaleViolations counts reads that broke their mode's contract —
	// a read-your-writes or quorum read returning anything but the
	// session's latest version, or a bounded read staler than its
	// advertised bound. Counted across warmup and the measured interval;
	// any non-zero value is a consistency bug, and the harness and bench
	// cells fail on it.
	StaleViolations int64
}

// BytesPerOp returns the SAN payload per measured operation.
func (r *KVResult) BytesPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Net.Total()) / float64(r.Ops)
}

// RunKV formats a kv store inside db, preloads the keyspace, warms up,
// and drives the measured operation mix.
func RunKV(db repro.DB, opts KVOptions) (KVResult, error) {
	opts = opts.withDefaults()
	if opts.Ops <= 0 {
		return KVResult{}, fmt.Errorf("tpc: non-positive kv operation count %d", opts.Ops)
	}
	store, err := kv.Open(db)
	if err != nil {
		return KVResult{}, err
	}
	// A store with fewer slots than records cannot hold the preload; one
	// whose regions fill unevenly says so itself (kv.ErrFull from the
	// preload's Put).
	if opts.Records >= store.Slots() {
		return KVResult{}, fmt.Errorf("tpc: %d records leave no slot headroom in the store's %d slots", opts.Records, store.Slots())
	}
	mode, err := ParseReadMode(opts.ReadMode)
	if err != nil {
		return KVResult{}, err
	}
	replica := mode != repro.ReadPrimary
	r := NewRand(opts.Seed)
	value := make([]byte, kvValueSize)
	fillValue := func(tag int64) {
		for i := range value {
			value[i] = byte(tag + int64(i)*131)
		}
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }

	// Replica-read audit state: per-key version counters stamped into the
	// first 8 value bytes (content-only — the sim charges by sizes and
	// offsets, never byte values), the session's commit token, and — on a
	// single shard, where the session is the only writer and commits are
	// serial — the exact commit sequence of each key's latest write
	// (keySeq), predicted by counting the session's own commits (putSeq).
	var (
		tok    repro.Token
		vers   []uint64
		keySeq []uint64
		putSeq uint64
		single = db.Shards() == 1
	)
	ensureKey := func(idx int) {
		for len(vers) <= idx {
			vers = append(vers, 0)
			keySeq = append(keySeq, 0)
		}
	}
	// stamp bumps key idx's version and embeds it in the staged value;
	// the caller has already run fillValue.
	stamp := func(idx int) {
		ensureKey(idx)
		vers[idx]++
		binary.BigEndian.PutUint64(value[:8], vers[idx])
	}
	// strictAck-mode runs seal every write's group-commit batch, so each
	// write is acknowledged — not merely locally committed — before the
	// next operation, and the audit may demand it unconditionally. Quorum
	// mode needs this (its contract covers exactly the acknowledged
	// commits, and a parked write is indistinguishable from an acked one
	// out here); sharded runs need it because per-shard commit sequences
	// can't be predicted from a flat session. Read-your-writes and bounded
	// runs keep full batching: their contracts are auditable from the
	// token floor and the serving view's own sequence numbers.
	strictAck := !single || mode == repro.ReadQuorum
	// Quorum reads owe every *quorum-acknowledged* commit: any read
	// majority intersects every commit quorum. Under 1-safe or 2-safe no
	// commit quorum exists — Flush returns before the backups hold the
	// batch — so the unconditional quorum-freshness demand only holds on
	// quorum-committing deployments.
	quorumAcked := false
	if sr, ok := db.(interface{ Safety() repro.Safety }); ok {
		quorumAcked = sr.Safety() == repro.QuorumSafe
	}
	// wrote records the session floor after a successful mutation of idx.
	wrote := func(idx int) error {
		if strictAck {
			if err := db.Flush(); err != nil {
				return err
			}
		}
		tok = db.Token(tok)
		if single {
			putSeq++
			keySeq[idx] = putSeq
		}
		return nil
	}

	res := KVResult{Mix: opts.Mix, ReadMode: mode.String()}

	// audit checks one read-back version against the mode's contract.
	// Note the commit counter (and so the token) advances at local commit:
	// a write parked in an open group-commit batch is token-covered before
	// it is acknowledged or shipped — routing must treat it as a floor,
	// while quorum's acked-commits contract needs strictAck to be audited.
	audit := func(idx int, got uint64, rres repro.ReadResult) {
		// Routing-contract checks, independent of the value read:
		if rres.Replica > 0 {
			switch {
			case mode == repro.ReadYourWrites && len(tok) > 0 && rres.Seq < tok[0]:
				// The serving view never reached the session's floor.
				res.StaleViolations++
			case mode == repro.ReadBounded && rres.Primary-rres.Seq > opts.StalenessBound:
				// Staler than the advertised bound.
				res.StaleViolations++
			}
		}
		switch {
		case got > vers[idx]:
			// Newer than anything the session ever wrote.
			res.StaleViolations++
		case got == vers[idx]:
			// Fresh.
		case rres.Replica == 0:
			// The primary is never stale — it sees even parked writes.
			res.StaleViolations++
		case single && rres.Seq >= keySeq[idx]:
			// Any view whose applied sequence reached the write's commit
			// sequence must return it, whatever the mode. With the token
			// covering parked writes, this is also the read-your-writes
			// value check: a replica qualifying for the floor has
			// Seq >= tok >= keySeq, so a missing write lands here.
			res.StaleViolations++
		case strictAck && (mode == repro.ReadYourWrites || (mode == repro.ReadQuorum && quorumAcked)):
			// Every write was sealed and (on a quorum-committing
			// deployment) quorum-acknowledged in wrote(): these modes owe
			// all of them unconditionally.
			res.StaleViolations++
		}
	}
	served := func(rres repro.ReadResult, measured bool) {
		if !measured {
			return
		}
		if rres.Replica > 0 {
			res.ReplicaReads++
		} else {
			res.PrimaryReads++
		}
		res.Repaired += int64(rres.Repaired)
	}
	// Scan audit: the callback records each visited entry (parsing the
	// key's index back out of its "user%08d" spelling); the recorded
	// samples are audited after ScanAt reports who served the snapshot.
	type scanSample struct {
		idx int
		got uint64
	}
	var pend []scanSample
	record := func(k, v []byte) error {
		if len(k) != 12 || len(v) < 8 {
			pend = append(pend, scanSample{idx: -1})
			return nil
		}
		idx := 0
		for _, c := range k[4:] {
			if c < '0' || c > '9' {
				pend = append(pend, scanSample{idx: -1})
				return nil
			}
			idx = idx*10 + int(c-'0')
		}
		pend = append(pend, scanSample{idx: idx, got: binary.BigEndian.Uint64(v[:8])})
		return nil
	}
	flushScanAudit := func(rres repro.ReadResult) {
		for _, smp := range pend {
			if smp.idx < 0 {
				res.StaleViolations++
				continue
			}
			ensureKey(smp.idx)
			audit(smp.idx, smp.got, rres)
		}
		pend = pend[:0]
	}

	// Preload in multi-key transaction batches: one commit per batch
	// instead of two per key.
	const batch = 64
	for base := 0; base < opts.Records; base += batch {
		txn, err := store.Begin()
		if err != nil {
			return KVResult{}, err
		}
		for i := base; i < base+batch && i < opts.Records; i++ {
			fillValue(int64(i))
			if replica {
				stamp(i)
			}
			if err := txn.Put(key(i), value); err != nil {
				return KVResult{}, fmt.Errorf("tpc: kv preload %d: %w", i, err)
			}
		}
		if err := txn.Commit(); err != nil {
			return KVResult{}, fmt.Errorf("tpc: kv preload commit: %w", err)
		}
	}
	if replica {
		if err := db.Flush(); err != nil {
			return KVResult{}, err
		}
		// Let the shipped preload land on every backup before reads route
		// there: under 1-safe nothing else waits for the deliveries, and a
		// backup view missing whole preloaded keys would fail lookups
		// (staleness is a value property, existence is not). Pre-warmup,
		// so the measured interval is untouched.
		db.Settle()
		tok = db.Token(tok)
		putSeq = db.Committed() // preload commits, all sealed by the flush
	}
	nextKey := opts.Records // fresh-key counter for the scan mix's inserts
	// scanOnce runs one range scan, routed per the run's read mode.
	scanOnce := func(measured bool) error {
		start := key(r.IntN(nextKey))
		var (
			n   int
			err error
		)
		if replica {
			var rres repro.ReadResult
			n, rres, err = store.ScanAt(start, kvScanLen, repro.ReadOpts{Mode: mode, Token: tok, Bound: opts.StalenessBound}, record)
			if err != nil {
				pend = pend[:0]
				return err
			}
			flushScanAudit(rres)
			served(rres, measured)
		} else {
			n, err = store.Scan(start, kvScanLen, func(k, v []byte) error { return nil })
			if err != nil {
				return err
			}
		}
		if measured {
			res.Scans++
			res.ScanItems += int64(n)
		}
		return nil
	}
	one := func(measured bool) error {
		count := func(p *int64) {
			if measured {
				*p++
			}
		}
		draw := r.IntN(100)
		switch {
		case opts.Mix == MixScan && draw < 95:
			return scanOnce(measured)
		case opts.Mix == MixScan:
			// Insert a fresh key; when its region is full substitute a
			// scan — the mix's dominant operation.
			fillValue(int64(nextKey))
			if replica {
				stamp(nextKey)
			}
			err := store.Put(key(nextKey), value)
			if errors.Is(err, kv.ErrFull) {
				if replica {
					vers[nextKey]-- // the write never happened
				}
				return scanOnce(measured)
			}
			if err == nil {
				if replica {
					if err := wrote(nextKey); err != nil {
						return err
					}
				}
				nextKey++
				count(&res.Inserts)
			}
			return err
		case (opts.Mix == MixReadHeavy && draw < 95) || (opts.Mix == MixUpdateHeavy && draw < 50):
			i := r.IntN(opts.Records)
			if replica {
				val, rres, err := store.GetAt(key(i), repro.ReadOpts{Mode: mode, Token: tok, Bound: opts.StalenessBound})
				if err != nil {
					return err
				}
				served(rres, measured)
				audit(i, binary.BigEndian.Uint64(val[:8]), rres)
			} else if _, err := store.Get(key(i)); err != nil {
				return err
			}
			count(&res.Reads)
			return nil
		default:
			i := r.IntN(opts.Records)
			fillValue(int64(i) * 31)
			if replica {
				stamp(i)
			}
			if err := store.Put(key(i), value); err != nil {
				return err
			}
			if replica {
				if err := wrote(i); err != nil {
					return err
				}
			}
			count(&res.Updates)
			return nil
		}
	}

	for i := int64(0); i < opts.Warmup; i++ {
		if err := one(false); err != nil {
			return KVResult{}, fmt.Errorf("tpc: kv warmup op %d: %w", i, err)
		}
	}
	db.ResetMeasurement()
	for i := int64(0); i < opts.Ops; i++ {
		if err := one(true); err != nil {
			return KVResult{}, fmt.Errorf("tpc: kv op %d: %w", i, err)
		}
	}
	res.Ops = opts.Ops
	if replica {
		// A read-scaled run is paced by its busiest node — primary or
		// read-serving backup — not by the primary alone.
		res.Elapsed = db.ReplicaElapsed()
	} else {
		res.Elapsed = db.Elapsed()
	}
	res.Net = db.NetTraffic()
	res.Keys = store.Len()
	if res.Elapsed > 0 {
		res.OPS = float64(res.Ops) / res.Elapsed.Seconds()
	}
	return res, nil
}

// RunKVBurst measures the kv layer under acknowledgement deferral: after
// the usual preload, opts.Ops value updates of uniformly drawn keys run in
// bursts of burst PUTs, each burst a kv.Burst sealed once — what kvserver
// does with the PUTs of one pipelined burst of requests, minus the wire.
// burst = 1 is one seal per PUT. Only Updates, Elapsed, OPS, Net and Keys
// of the result are set.
func RunKVBurst(db repro.DB, opts KVOptions, burst int) (KVResult, error) {
	opts = opts.withDefaults()
	if opts.Ops <= 0 || burst <= 0 {
		return KVResult{}, fmt.Errorf("tpc: kv burst run needs positive counts, got %d operations in bursts of %d", opts.Ops, burst)
	}
	store, err := kv.Open(db)
	if err != nil {
		return KVResult{}, err
	}
	if opts.Records >= store.Slots() {
		return KVResult{}, fmt.Errorf("tpc: %d records leave no slot headroom in the store's %d slots", opts.Records, store.Slots())
	}
	r := NewRand(opts.Seed)
	value := make([]byte, kvValueSize)
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	for i := 0; i < opts.Records; i++ {
		if err := store.Put(key(i), value); err != nil {
			return KVResult{}, fmt.Errorf("tpc: kv preload %d: %w", i, err)
		}
	}
	b := store.Burst()
	run := func(n int64) error {
		for done := int64(0); done < n; {
			for i := 0; i < burst && done < n; i++ {
				if err := b.Put(key(r.IntN(opts.Records)), value); err != nil {
					_ = b.Seal()
					return err
				}
				done++
			}
			if err := b.Seal(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(opts.Warmup); err != nil {
		return KVResult{}, fmt.Errorf("tpc: kv burst warmup: %w", err)
	}
	db.ResetMeasurement()
	if err := run(opts.Ops); err != nil {
		return KVResult{}, fmt.Errorf("tpc: kv burst run: %w", err)
	}
	res := KVResult{Mix: fmt.Sprintf("burst-%d", burst), Ops: opts.Ops, Updates: opts.Ops, ReadMode: "primary"}
	res.Elapsed = db.Elapsed()
	res.Net = db.NetTraffic()
	res.Keys = store.Len()
	if res.Elapsed > 0 {
		res.OPS = float64(res.Ops) / res.Elapsed.Seconds()
	}
	return res, nil
}
