package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/kv"
	"repro/kvclient"
)

// host is the program under test for a served workload: a deployment, the
// kv store laid out in it, and a kvserver on a loopback port — all in this
// process, beside the load generator.
type host struct {
	db    repro.DB
	admin repro.Admin
	srv   *kvserver.Server
	reg   *obs.Registry // the server's instruments; nil unless traced
	addr  string
}

// startHost builds the deployment and serves it. traced switches on the
// program's own observability (repro.Config.Metrics, kvserver.Config.Obs).
func startHost(w workload, traced bool) (*host, error) {
	cfg := deployment(w, traced)
	var (
		db  repro.DB
		err error
	)
	if w.shards > 1 {
		db, err = repro.NewSharded(cfg, w.shards)
	} else {
		db, err = repro.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	store, err := kv.Open(db)
	if err != nil {
		return nil, err
	}
	// Updates are out of place, so every operation in flight can hold one
	// slot more than the keys do. A store too small for the keyspace fails
	// part of the writes with store-full and looks fast doing it.
	if need := w.keys + workers + 1; store.Slots() < need {
		return nil, fmt.Errorf("%d MiB store has %d slots, the keyspace needs %d", w.dbMiB, store.Slots(), need)
	}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
	}
	srv := kvserver.New(store, kvserver.Config{Obs: reg})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	go srv.Serve(l) // returns when close() drains the server
	return &host{db: db, admin: db.(repro.Admin), srv: srv, reg: reg, addr: l.Addr().String()}, nil
}

func (h *host) close() { h.srv.Close() }

func (h *host) dial() *kvclient.Client {
	// The retry budget outlasts any outage the crash drill causes, so an
	// operation fails only when something is broken.
	return kvclient.Dial(h.addr, kvclient.Options{Conns: 2, RetryBudget: 30 * time.Second})
}

// loadgen drives one served workload through one kvclient.Client and keeps
// the ledger the correctness checks read.
type loadgen struct {
	w      workload
	cl     *kvclient.Client
	tracer *tracer // nil when not tracing
	// acked[k] is the newest version of key k whose PUT was acknowledged;
	// 0 means none. Only k's owner stores; anyone loads.
	acked []atomic.Int64
	ws    [workers]*worker

	// Values that came back wrong: not a well-formed value of the key asked
	// for, or older than a version acknowledged before the GET was sent.
	malformed, stale atomic.Int64
	// resent counts the sends beyond an operation's first.
	resent atomic.Int64
}

// worker is the state of one load-generator goroutine.
type worker struct {
	gen     *opGen
	version int64 // last version this worker wrote; its keys' versions only grow
	key     [keyLen]byte
	val     [valueSize]byte
	recs    []rec
}

func newLoadgen(w workload, cl *kvclient.Client, seed uint64) *loadgen {
	g := &loadgen{w: w, cl: cl, acked: make([]atomic.Int64, w.keys)}
	var z *zipf
	if w.zipf {
		z = newZipf(w.keys, 0.99)
	}
	for i := range g.ws {
		ws := &worker{gen: newOpGen(seed, i, w.keys, w.getPct, z)}
		for j := range ws.val {
			ws.val[j] = 'x'
		}
		g.ws[i] = ws
	}
	return g
}

// each runs fn once per worker, concurrently, and waits for all of them.
func (g *loadgen) each(fn func(i int, ws *worker)) {
	var wg sync.WaitGroup
	for i, ws := range g.ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, ws)
		}()
	}
	wg.Wait()
}

// maxSends bounds how often the load generator sends one operation. The
// client already retries what the server calls retryable, for 30 s; this
// is the application's own retry of an operation the client gave up on. It
// is needed because a crash that lands between a transaction's Begin and
// its writes surfaces vista's crashed error unmapped, which kvserver
// reports as terminal (about one operation per six crash drills).
const maxSends = 4

// do performs one operation, sending it again if it fails, and reports
// whether it succeeded.
func (g *loadgen) do(ws *worker, kind uint8, k int) bool {
	putKey(ws.key[:], k)
	if kind == opPut {
		ws.version++
		putValue(ws.val[:], ws.version, k)
	}
	for sends := 1; !g.send(ws, kind, k); sends++ {
		if sends == maxSends {
			return false
		}
		g.resent.Add(1)
	}
	return true
}

// send sends the operation staged in ws once.
func (g *loadgen) send(ws *worker, kind uint8, k int) bool {
	if kind == opPut {
		if err := g.cl.Put(ws.key[:], ws.val[:]); err != nil {
			return false
		}
		g.acked[k].Store(ws.version)
		return true
	}
	floor := g.acked[k].Load()
	val, err := g.cl.Get(ws.key[:])
	if err != nil {
		// Every key is preloaded, so not-found is a failure too.
		return false
	}
	version, gotK, ok := parseValue(val)
	switch {
	case !ok || gotK != k:
		g.malformed.Add(1)
	case version < floor:
		g.stale.Add(1)
	}
	return true
}

// preload writes every key once through the wire, each worker its own.
func (g *loadgen) preload() error {
	var failed atomic.Int64
	g.each(func(i int, ws *worker) {
		for k := i; k < g.w.keys; k += workers {
			if !g.do(ws, opPut, k) {
				failed.Add(1)
			}
		}
	})
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("preload: %d of %d puts failed", n, g.w.keys)
	}
	return nil
}

// warm runs n operations of the workload's mix in a closed loop.
func (g *loadgen) warm(n int) {
	g.each(func(_ int, ws *worker) {
		for range n / workers {
			kind, k := ws.gen.next()
			g.do(ws, kind, k)
		}
	})
}

// closedLoop keeps every worker issuing its next operation as soon as the
// previous one returns, for the length of the window.
func (g *loadgen) closedLoop(start time.Time, length time.Duration) {
	g.each(func(_ int, ws *worker) {
		for {
			t0 := time.Now()
			if t0.Sub(start) >= length {
				return
			}
			kind, k := ws.gen.next()
			id := g.tracer.sample()
			ok := g.do(ws, kind, k)
			t1 := time.Now()
			g.tracer.served(id, kind, t0, t0, t1)
			ws.recs = append(ws.recs, rec{due: int64(t0.Sub(start)), lat: clampLat(t1.Sub(t0)), kind: kind, ok: ok})
		}
	})
}

// pace sends the due time of every operation of an open loop — start,
// start+interval, start+2·interval, … — on due, each as soon as the clock
// reaches it, and closes due after the last. It returns how late the
// latest send was. The time it stamps is when the operation was due, not
// when it was sent: a stall in the pacer or in the workers then shows up
// as latency and not as a lower offered rate.
func pace(start time.Time, length, interval time.Duration, due chan<- time.Time) (maxLag time.Duration) {
	defer close(due)
	// Waking for every operation would cost more CPU than the operations
	// do at 20 000 a second; sleeping at least this long sends them in
	// bursts of a few.
	const minSleep = 200 * time.Microsecond
	n := int(length / interval)
	for i := 0; i < n; {
		now := time.Now()
		for ; i < n; i++ {
			at := start.Add(time.Duration(i) * interval)
			if at.After(now) {
				break
			}
			due <- at
			if lag := time.Since(at); lag > maxLag {
				maxLag = lag
			}
		}
		if i < n {
			time.Sleep(max(minSleep, time.Until(start.Add(time.Duration(i)*interval))))
		}
	}
	return maxLag
}

// openLoop runs the workers off a pacer. Latency is timed from the due
// time.
func (g *loadgen) openLoop(start time.Time, length time.Duration) (maxLag time.Duration) {
	// The buffer holds the operations that fall due while every worker is
	// stuck in an outage: 65 536 is three seconds of them at 20 000 a
	// second, far beyond any outage seen; a full buffer blocks the pacer
	// and shows as lag.
	due := make(chan time.Time, 1<<16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		maxLag = pace(start, length, time.Second/time.Duration(g.w.rate), due)
	}()
	g.each(func(_ int, ws *worker) {
		for at := range due {
			kind, k := ws.gen.next()
			id := g.tracer.sample()
			t0 := time.Now()
			ok := g.do(ws, kind, k)
			t1 := time.Now()
			g.tracer.served(id, kind, at, t0, t1)
			ws.recs = append(ws.recs, rec{due: int64(at.Sub(start)), lat: clampLat(t1.Sub(at)), kind: kind, ok: ok})
		}
	})
	<-done
	return maxLag
}

// crashTimes returns when to crash the primary: twice in every sub-window,
// 0.45 sub-windows apart from 0.3 of the first, which leaves the last crash
// a quarter of a sub-window to heal before the window ends.
func crashTimes(sc scale) []time.Duration {
	var ts []time.Duration
	for i := range 2 * sc.subs {
		ts = append(ts, sc.sub*3/10+time.Duration(i)*sc.sub*45/100)
	}
	return ts
}

// crasher crashes the primary at each of times and returns, for each
// crash, when CrashPrimary returned. The deployment's traffic counters
// restart at every failover, so crasher reads them just before each crash
// and returns the sum as ended: the SAN traffic of the primaries it ended.
// (The few PUTs that commit between the reading and the crash go uncounted:
// under a millionth of the bytes.)
func crasher(db repro.DB, admin repro.Admin, start time.Time, times []time.Duration) (at []time.Duration, ended repro.Traffic, err error) {
	for _, t := range times {
		time.Sleep(time.Until(start.Add(t)))
		ended = addTraffic(ended, db.NetTraffic())
		if err := admin.CrashPrimary(); err != nil {
			return at, ended, fmt.Errorf("crash %d: %w", len(at)+1, err)
		}
		at = append(at, time.Since(start))
	}
	return at, ended, nil
}

// outages returns, for each crash, the time from CrashPrimary returning to
// the completion of the first operation that fell due after it.
func outages(recs [][]rec, crashes []time.Duration) []time.Duration {
	out := make([]time.Duration, len(crashes))
	for i, c := range crashes {
		first := int64(-1)
		for _, rs := range recs {
			for _, r := range rs {
				if r.ok && r.due >= int64(c) {
					if end := r.due + int64(r.lat); first < 0 || end < first {
						first = end
					}
				}
			}
		}
		if first >= 0 {
			out[i] = time.Duration(first) - c
		}
	}
	return out
}

// audit reads every key back on fresh connections: each must carry a
// well-formed value of its own, at a version no older than the newest one
// acknowledged.
func (g *loadgen) audit(h *host) error {
	cl := h.dial()
	defer cl.Close()
	var missing, stale atomic.Int64
	g.each(func(i int, ws *worker) {
		for k := i; k < g.w.keys; k += workers {
			putKey(ws.key[:], k)
			val, err := cl.Get(ws.key[:])
			if err != nil {
				missing.Add(1)
				continue
			}
			if version, gotK, ok := parseValue(val); !ok || gotK != k || version < g.acked[k].Load() {
				stale.Add(1)
			}
		}
	})
	var errs []error
	if m, s := missing.Load(), stale.Load(); m+s > 0 {
		errs = append(errs, fmt.Errorf("acked-write audit of %d keys: %d missing, %d stale", g.w.keys, m, s))
	}
	if m, s := g.malformed.Load(), g.stale.Load(); m+s > 0 {
		errs = append(errs, fmt.Errorf("GETs during the run: %d malformed values, %d older than an acknowledged write", m, s))
	}
	return errors.Join(errs...)
}

// servedRun is a served workload set up and ready to measure.
type servedRun struct {
	h *host
	g *loadgen
}

func (r *servedRun) setTracer(t *tracer) { r.g.tracer = t }

func (r *servedRun) check() error { return r.g.audit(r.h) }

// setUpServed does everything a served workload needs before measuring:
// deployment, store, server, every key preloaded through the wire, and a
// warm-up of a fixed number of operations. The time it takes is setup_s.
func setUpServed(w workload, sc scale, seed uint64, traced bool) (*servedRun, error) {
	if w.keys%workers != 0 {
		return nil, fmt.Errorf("%d keys do not divide among %d workers", w.keys, workers)
	}
	h, err := startHost(w, traced)
	if err != nil {
		return nil, err
	}
	g := newLoadgen(w, h.dial(), seed)
	if err := g.preload(); err != nil {
		h.close()
		return nil, err
	}
	g.warm(sc.warmup)
	h.db.ResetMeasurement()
	h.reg.Reset() // the deployment's registry resets with its measurement; the server's is ours
	return &servedRun{h: h, g: g}, nil
}

func (r *servedRun) close() {
	r.g.cl.Close()
	r.h.close()
}
