// Package kvserver is the TCP front-end over a kv.Store: the piece that
// turns the in-process reproduction into a system real clients can
// talk to. It speaks the kvwire length-prefixed binary protocol
// (PUT/GET/DELETE/SCAN/TXN/STATS/PING), pipelines requests per
// connection behind a bounded in-flight window, recycles every frame
// buffer through kvwire's pool (no per-operation allocations or
// goroutines on the steady-state path — two goroutines per connection,
// period), routes GETs and SCANs carrying a kvwire consistency block
// through the store's replica read views (answering mutations with the
// commit token that anchors read-your-writes sessions), and maps the
// deployment's failure taxonomy onto the wire:
//
//   - kv.ErrBroken / repro.ErrCrashed / repro.ErrLeaseExpired become
//     StatusRetry — the client retries, and the server's healer
//     re-Opens the store in place (kv.Store.Reopen) as soon as the
//     autopilot has promoted a survivor, calling Admin.Failover itself
//     when no autopilot is configured.
//   - repro.ErrSafetyUnavailable becomes StatusDegraded — the
//     deployment cannot currently meet its configured safety level.
//   - terminal operation errors (store full, key too large, ...)
//     become StatusErr; malformed frames become StatusBad and close
//     the connection.
//
// Shutdown is a graceful drain: listeners close, connections finish
// answering every request already read, writers flush, and only then do
// the sockets close.
package kvserver

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/kvwire"
	"repro/internal/obs"
	"repro/kv"
)

// Config tunes a Server. The zero value is serviceable.
type Config struct {
	// Window is the per-connection in-flight window: how many parsed-
	// but-unsent responses may queue before the reader stops consuming
	// requests (backpressure propagates to the client through TCP).
	// Default 64.
	Window int
	// MaxFrame caps the request frame body size (default
	// kvwire.MaxFrame).
	MaxFrame int
	// Logf, when set, receives serving-lifecycle log lines.
	Logf func(format string, args ...any)
	// Obs, when set, attaches the server's own instruments (per-opcode
	// latency, window occupancy, connection churn, error taxonomy) to the
	// registry and routes healer decisions through its event ring. Keep
	// it distinct from the deployment's registry (repro.Config.Metrics):
	// OpMetrics responses merge the two, so sharing one would double-
	// count. Nil (the default) leaves the serving path uninstrumented —
	// it then never reads the wall clock on instrumentation's behalf.
	Obs *obs.Registry
}

// Server serves one kv.Store over any number of listeners.
type Server struct {
	store    *kv.Store
	db       repro.DB
	admin    repro.Admin // nil when the deployment exposes no Admin
	window   int
	maxFrame int
	logf     func(string, ...any)
	obs      *serverObs // nil when uninstrumented

	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{}
	draining bool

	connWg sync.WaitGroup
	healWg sync.WaitGroup
	healCh chan struct{}
	done   chan struct{}

	ops       atomic.Uint64
	retries   atomic.Uint64
	reopens   atomic.Uint64
	badFrames atomic.Uint64
}

// New builds a Server over store and starts its healer loop. The
// deployment behind the store is probed for the repro.Admin surface;
// with it, the healer can drive a manual failover when no autopilot is
// configured.
func New(store *kv.Store, cfg Config) *Server {
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = kvwire.MaxFrame
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		store:    store,
		db:       store.DB(),
		window:   cfg.Window,
		maxFrame: cfg.MaxFrame,
		logf:     cfg.Logf,
		obs:      newServerObs(cfg.Obs),
		lns:      make(map[net.Listener]struct{}),
		conns:    make(map[net.Conn]struct{}),
		healCh:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	s.admin, _ = s.db.(repro.Admin)
	s.healWg.Add(1)
	go s.healLoop()
	return s
}

// Serve accepts connections on l until the server drains or the
// listener fails. It blocks; run one goroutine per listener.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return errors.New("kvserver: server is draining")
	}
	s.lns[l] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			delete(s.lns, l)
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWg.Add(1)
		s.mu.Unlock()
		s.obs.connOpened()
		go s.handleConn(c)
	}
}

// Shutdown drains the server: stop accepting, unblock every reader,
// finish writing the responses already owed, close the sockets. It
// returns once every connection has drained or ctx expires (remaining
// connections are then closed hard).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for l := range s.lns {
		l.Close()
	}
	// Wake blocked readers; requests already parsed keep flowing to the
	// writers, new ones are not read.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.connWg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-drained
	}
	close(s.done)
	s.healWg.Wait()
	return err
}

// Close is an immediate Shutdown.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// Stats snapshots the serving counters (the payload of an OpStats
// request).
func (s *Server) Stats() kvwire.Stats {
	s.mu.Lock()
	conns := len(s.conns)
	draining := s.draining
	s.mu.Unlock()
	st := kvwire.Stats{
		Keys:      s.store.Len(),
		Committed: s.db.Committed(),
		Conns:     conns,
		Ops:       s.ops.Load(),
		Retries:   s.retries.Load(),
		Reopens:   s.reopens.Load(),
		BadFrames: s.badFrames.Load(),
		Draining:  draining,
		Shards:    s.db.Shards(),
	}
	if s.admin != nil {
		st.PlacementEpoch = s.admin.PlacementEpoch()
	}
	return st
}

// Metrics merges the served deployment's metrics snapshot with the
// server's own registry (the payload of an OpMetrics request and the
// source of the Prometheus text endpoint). Empty when neither layer is
// instrumented.
func (s *Server) Metrics() obs.Snapshot {
	snap := s.db.Metrics()
	if s.obs != nil {
		snap.Merge(s.obs.reg.Snapshot())
	}
	return snap
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handleConn runs one connection: a reader that parses and executes
// requests in arrival order, and a writer that flushes the bounded
// response queue. No other goroutines ever exist for the connection.
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.obs.connClosed()
		s.connWg.Done()
	}()

	out := make(chan []byte, s.window)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(c, 16<<10)
		var werr error
		for b := range out {
			if werr == nil {
				_, werr = bw.Write(b)
				// Flush only when the queue is empty: pipelined bursts
				// coalesce into one syscall.
				if werr == nil && len(out) == 0 {
					werr = bw.Flush()
				}
			}
			kvwire.PutBuf(b)
		}
		if werr == nil {
			bw.Flush()
		}
	}()

	br := bufio.NewReaderSize(c, 16<<10)
	buf := kvwire.GetBuf()
	var req kvwire.Request
	var sess session
	for {
		if s.isDraining() {
			break
		}
		var err error
		buf, err = kvwire.ReadFrame(br, buf, s.maxFrame)
		if err != nil {
			if errors.Is(err, kvwire.ErrFrame) {
				s.badFrames.Add(1)
				if s.obs != nil {
					s.obs.bad.Inc()
				}
				out <- kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusBad, err.Error())
			}
			break
		}
		var start time.Time
		if s.obs != nil {
			start = time.Now()
		}
		resp, fatal := s.execute(buf, &req, &sess)
		if s.obs != nil {
			// Queue depth before this response enqueues: the occupancy the
			// request found, 0..window-1.
			s.obs.observeOp(req.Op, time.Since(start), len(out))
		}
		out <- resp
		if fatal {
			break
		}
	}
	kvwire.PutBuf(buf)
	close(out)
	<-writerDone
}

// errScanTruncated stops a scan whose response frame is about to
// outgrow the protocol limit; the entries already staged are delivered.
var errScanTruncated = errors.New("kvserver: scan response at frame limit")

// session is the per-connection read-consistency state, owned by the
// connection's reader goroutine: the commit token captured after the
// connection's last mutation. A read carrying its own token uses that
// (client-merged session state wins); one carrying a consistency block
// without a token falls back to this floor, giving single-connection
// clients read-your-writes with no client-side bookkeeping.
type session struct {
	tok repro.Token
}

// readOpts assembles the facade ReadOpts for one GET/SCAN request.
func (sess *session) readOpts(req *kvwire.Request) repro.ReadOpts {
	opts := repro.ReadOpts{Mode: repro.ReadMode(req.Mode), Bound: req.Bound}
	if len(req.Token) > 0 {
		opts.Token = repro.Token(req.Token)
	} else {
		opts.Token = sess.tok
	}
	return opts
}

// wrote refreshes the session floor after a successful mutation and
// seals the response carrying it.
func (s *Server) wrote(sess *session) []byte {
	sess.tok = s.db.Token(sess.tok)
	return kvwire.AppendOKToken(kvwire.GetBuf(), sess.tok)
}

// execute runs one decoded request against the store and encodes the
// response into a pooled buffer. fatal reports that the connection must
// close after the response (malformed frame).
func (s *Server) execute(frame []byte, req *kvwire.Request, sess *session) (resp []byte, fatal bool) {
	s.ops.Add(1)
	if err := kvwire.ParseRequest(frame, req); err != nil {
		s.badFrames.Add(1)
		if s.obs != nil {
			s.obs.bad.Inc()
		}
		return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusBad, err.Error()), true
	}
	switch req.Op {
	case kvwire.OpPut:
		if err := s.store.Put(req.Key, req.Val); err != nil {
			return s.errResp(err), false
		}
		return s.wrote(sess), false

	case kvwire.OpGet:
		buf := kvwire.BeginFrame(kvwire.GetBuf(), kvwire.StatusOK)
		var (
			out []byte
			err error
		)
		if req.Mode == kvwire.ModePrimary {
			out, err = s.store.GetAppend(req.Key, buf)
		} else {
			out, _, err = s.store.GetAppendAt(req.Key, buf, sess.readOpts(req))
		}
		if err != nil {
			kvwire.PutBuf(out)
			return s.errResp(err), false
		}
		return kvwire.EndFrame(out), false

	case kvwire.OpDelete:
		if err := s.store.Delete(req.Key); err != nil {
			return s.errResp(err), false
		}
		return s.wrote(sess), false

	case kvwire.OpScan:
		buf, countOff := kvwire.BeginScanResponse(kvwire.GetBuf())
		n := 0
		entry := func(k, v []byte) error {
			if len(buf)+len(k)+len(v)+6 > s.maxFrame {
				return errScanTruncated
			}
			buf = kvwire.AppendScanEntry(buf, k, v)
			n++
			return nil
		}
		var err error
		if req.Mode == kvwire.ModePrimary {
			_, err = s.store.Scan(req.Key, req.Limit, entry)
		} else {
			_, _, err = s.store.ScanAt(req.Key, req.Limit, sess.readOpts(req), entry)
		}
		if err != nil && !errors.Is(err, errScanTruncated) {
			kvwire.PutBuf(buf)
			return s.errResp(err), false
		}
		return kvwire.FinishScanResponse(buf, countOff, n), false

	case kvwire.OpTxn:
		if err := s.executeTxn(req.Ops); err != nil {
			return s.errResp(err), false
		}
		return s.wrote(sess), false

	case kvwire.OpStats:
		data, err := json.Marshal(s.Stats())
		if err != nil {
			return s.errResp(err), false
		}
		buf := kvwire.BeginFrame(kvwire.GetBuf(), kvwire.StatusOK)
		buf = append(buf, data...)
		return kvwire.EndFrame(buf), false

	case kvwire.OpPing:
		return kvwire.AppendEmpty(kvwire.GetBuf(), kvwire.StatusOK), false

	case kvwire.OpMetrics:
		data, err := json.Marshal(s.Metrics())
		if err != nil {
			return s.errResp(err), false
		}
		buf := kvwire.BeginFrame(kvwire.GetBuf(), kvwire.StatusOK)
		buf = append(buf, data...)
		return kvwire.EndFrame(buf), false
	}
	// Unreachable: ParseRequest rejects unknown opcodes.
	return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusBad, "unhandled opcode"), true
}

// executeTxn applies one wire transaction through the store's multi-key
// commit path.
func (s *Server) executeTxn(ops []kvwire.Op) error {
	if len(ops) == 0 {
		return nil
	}
	txn, err := s.store.Begin()
	if err != nil {
		return err
	}
	for _, op := range ops {
		var err error
		if op.Kind == kvwire.TxnPut {
			err = txn.Put(op.Key, op.Val)
		} else {
			err = txn.Delete(op.Key)
		}
		if err != nil {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}

// errResp maps a store or deployment error onto the wire taxonomy.
func (s *Server) errResp(err error) []byte {
	switch {
	case errors.Is(err, kv.ErrNotFound):
		if s.obs != nil {
			s.obs.notFound.Inc()
		}
		return kvwire.AppendEmpty(kvwire.GetBuf(), kvwire.StatusNotFound)
	case errors.Is(err, kv.ErrBroken), errors.Is(err, repro.ErrCrashed), errors.Is(err, repro.ErrLeaseExpired):
		// The serving deployment crashed under the store (or this node
		// was deposed): retryable. Kick the healer; the client backs
		// off and retries against the same address.
		s.retries.Add(1)
		if s.obs != nil {
			s.obs.retry.Inc()
		}
		s.triggerHeal()
		return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusRetry, "failing over; retry")
	case errors.Is(err, repro.ErrSafetyUnavailable):
		if s.obs != nil {
			s.obs.degraded.Inc()
		}
		return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusDegraded, err.Error())
	default:
		if s.obs != nil {
			s.obs.terminal.Inc()
		}
		return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusErr, err.Error())
	}
}

// triggerHeal nudges the healer loop; triggers coalesce.
func (s *Server) triggerHeal() {
	select {
	case s.healCh <- struct{}{}:
	default:
	}
}

// healLoop re-Opens the store after a crash: every retryable error
// observed on the serving path lands here, and the loop keeps trying —
// with exponential backoff — until the deployment admits transactions
// again and kv.Store.Reopen rebuilds the index from the survivor's
// bytes. With an autopilot, the Reopen admission probe itself triggers
// the unattended promotion; without one, the healer drives
// Admin.Failover and a background RepairAsync itself.
func (s *Server) healLoop() {
	defer s.healWg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		select {
		case <-s.done:
			return
		case <-s.healCh:
		}
		backoff := healBackoffBase
		for attempt := 1; ; attempt++ {
			select {
			case <-s.done:
				return
			default:
			}
			if s.tryHeal() {
				s.obs.emit(obs.EventHealed, 0, uint64(attempt), 0)
				break
			}
			var sleep time.Duration
			sleep, backoff = nextBackoff(backoff, rng)
			// The retry decision lands in the event ring: attempt ordinal
			// in A, the jittered backoff (ns) in B.
			s.obs.emit(obs.EventHealRetry, 0, uint64(attempt), uint64(sleep))
			time.Sleep(sleep)
		}
	}
}

// The heal retry delay doubles from healBackoffBase and is capped at
// healBackoffCap, so a long outage (say, a quorum wait) never pushes the
// retry period past the point where recovery detection feels instant.
const (
	healBackoffBase = 500 * time.Microsecond
	healBackoffCap  = 20 * time.Millisecond
)

// nextBackoff returns the jittered delay to sleep now and the doubled,
// capped backoff to carry into the next round. The ±25% jitter keeps a
// fleet of healers (or a healer racing the autopilot's own probes) from
// retrying in lockstep against a deployment that is mid-failover.
func nextBackoff(cur time.Duration, rng *rand.Rand) (sleep, next time.Duration) {
	if cur < healBackoffBase {
		cur = healBackoffBase
	}
	if cur > healBackoffCap {
		cur = healBackoffCap
	}
	spread := int64(cur / 2)
	sleep = cur - cur/4 + time.Duration(rng.Int63n(spread+1))
	next = cur * 2
	if next > healBackoffCap {
		next = healBackoffCap
	}
	return sleep, next
}

// tryHeal attempts one heal round. Reports whether the store serves
// again.
func (s *Server) tryHeal() bool {
	err := s.store.Reopen()
	if errors.Is(err, repro.ErrCrashed) && s.admin != nil && !s.admin.AutopilotEnabled() {
		// No autopilot to promote a survivor: do it ourselves, then
		// heal the keyspace back to full redundancy in the background.
		if ferr := s.admin.Failover(); ferr != nil {
			return false
		}
		if err = s.store.Reopen(); err == nil {
			if rerr := s.admin.RepairAsync(); rerr != nil && !errors.Is(rerr, repro.ErrNotRepairable) {
				s.logf("kvserver: post-failover repair: %v", rerr)
			}
		}
	}
	if err != nil {
		return false
	}
	s.reopens.Add(1)
	if s.obs != nil {
		s.obs.reopenCnt.Inc()
	}
	s.logf("kvserver: store reopened on the promoted survivor (%d live keys)", s.store.Len())
	return true
}

// String names the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("kvserver(window=%d)", s.window)
}
