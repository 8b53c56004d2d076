// Package kvserver is the TCP front-end over a kv.Store: the piece that
// turns the in-process reproduction into a system real clients can
// talk to. It speaks the kvwire length-prefixed binary protocol
// (PUT/GET/DELETE/SCAN/TXN/STATS/PING), reads pipelined requests burst
// by burst, commits the bursts of every connection as one leader-led group
// under one seal and answers only after it (see handleConn), recycles
// every frame buffer through kvwire's pool (no per-operation allocations
// or goroutines on the steady-state path — one goroutine per connection,
// period), routes GETs and SCANs carrying a kvwire consistency block
// through the store's replica read views (answering mutations with the
// commit token that anchors read-your-writes sessions), and maps the
// deployment's failure taxonomy onto the wire:
//
//   - kv.ErrBroken / repro.ErrCrashed / repro.ErrLeaseExpired become
//     StatusRetry — and before that answer is written, the reader leading
//     the commit group re-Opens the store in place (kv.Store.Reopen, whose
//     admission probe is where an autopilot promotes a survivor;
//     Admin.Failover first when no autopilot is configured). A StatusRetry
//     is an invitation to a store that is already healed; if the heal
//     could not succeed yet, the next group — the retried request's —
//     attempts it again, so the client's back-off is the only polling loop
//     on the path.
//   - repro.ErrSafetyUnavailable becomes StatusDegraded — the
//     deployment cannot currently meet its configured safety level.
//   - terminal operation errors (store full, key too large, ...)
//     become StatusErr; malformed frames become StatusBad and close
//     the connection.
//
// Shutdown is a graceful drain: listeners close, connections finish
// answering every request already read, and only then do the sockets
// close.
package kvserver

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
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
	// Logf, when set, receives serving-lifecycle log lines.
	Logf func(format string, args ...any)
	// Obs, when set, attaches the server's own instruments (per-opcode
	// latency, unsent answers, connection churn, error taxonomy) to the
	// registry and routes heal outcomes through its event ring. Keep
	// it distinct from the deployment's registry (repro.Config.Metrics):
	// OpMetrics responses merge the two, so sharing one would double-
	// count. Nil (the default) leaves the serving path uninstrumented —
	// it then never reads the wall clock on instrumentation's behalf.
	Obs *obs.Registry
}

// Server serves one kv.Store over any number of listeners.
type Server struct {
	store *kv.Store
	db    repro.DB
	admin repro.Admin // nil when the deployment exposes no Admin
	logf  func(string, ...any)
	obs   serverObs

	mu    sync.Mutex
	lns   map[net.Listener]struct{}
	conns map[net.Conn]struct{}
	// draining is written under mu (Serve's check-and-register must not
	// interleave with Shutdown's sweep) and read bare by the connection
	// readers, once per burst.
	draining atomic.Bool

	connWg sync.WaitGroup

	// The commit group (commit): gmu guards leading and queue. The rest is
	// the leader's: the one kv.Burst, the group, and the heal state —
	// needHeal, set by a StatusRetry answer and cleared by a heal that
	// succeeds, and healFails, the failed attempts since.
	gmu       sync.Mutex
	leading   bool
	queue     []*connReader
	burst     *kv.Burst
	group     []*connReader
	needHeal  bool
	healFails uint64

	ops       atomic.Uint64
	retries   atomic.Uint64
	reopens   atomic.Uint64
	badFrames atomic.Uint64
}

// New builds a Server over store. The deployment behind the store is
// probed for the repro.Admin surface; with it, a heal can drive a manual
// failover when no autopilot is configured. It starts no goroutine: a
// server owns none, each connection one.
func New(store *kv.Store, cfg Config) *Server {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		store: store,
		db:    store.DB(),
		burst: store.Burst(),
		logf:  cfg.Logf,
		obs:   newServerObs(cfg.Obs),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	s.admin, _ = s.db.(repro.Admin)
	return s
}

// Serve accepts connections on l until the server drains or the
// listener fails. It blocks; run one goroutine per listener.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
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
			s.mu.Unlock()
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWg.Add(1)
		s.mu.Unlock()
		s.obs.opened.Inc()
		go s.handleConn(c)
	}
}

// Shutdown drains the server: stop accepting, unblock every reader,
// finish writing the responses already owed, close the sockets. It
// returns once every connection has drained or ctx expires (remaining
// connections are then closed hard).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	for l := range s.lns {
		l.Close()
	}
	// Wake blocked readers; requests already read are answered, new ones
	// are not read.
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
	s.mu.Unlock()
	st := kvwire.Stats{
		Keys:      s.store.Len(),
		Committed: s.db.Committed(),
		Conns:     conns,
		Ops:       s.ops.Load(),
		Retries:   s.retries.Load(),
		Reopens:   s.reopens.Load(),
		BadFrames: s.badFrames.Load(),
		Draining:  s.draining.Load(),
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
	if s.obs.reg != nil {
		snap.Merge(s.obs.reg.Snapshot())
	}
	return snap
}

// maxBurst caps the frames one burst stages before it joins the commit
// group.
const maxBurst = 64

// handleConn runs one connection on its one goroutine: a reader that
// parses requests, stages them burst by burst and writes their answers
// itself. No other goroutine ever exists for the connection.
//
// A burst is the frame that woke the reader plus every complete frame
// already in its buffer, up to maxBurst. The reader never waits for input
// it does not hold, so a lone request is a burst of one. PUT, DELETE, TXN
// and primary-mode GET join the burst; anything else commits the staged
// burst first, then runs on its own. A burst goes on only on one shard,
// while it holds a mutation (sealPending). It commits in the server's group
// (commit) with the bursts of every connection that queued meanwhile,
// under one deferral scope and one seal on every shard. The invariant: no
// response — GETs included — is written before a seal covering every
// commit it could have observed has returned nil; if the seal fails, every
// response it covered, in every connection, carries its error instead.
//
// Answers are flushed whenever the next read may block, so the answers of
// every burst already read leave in one write. A peer that stops reading
// blocks the reader in that write, after commit has let go of the store. A
// write that fails ends the connection: nothing more is executed from it.
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.obs.closed.Inc()
		s.connWg.Done()
	}()

	// The read buffer bounds a burst: a frame it cannot hold whole is never
	// "already there" and starts the next one.
	br := bufio.NewReaderSize(c, 16<<10)
	r := &connReader{s: s, bw: bufio.NewWriterSize(c, 16<<10), turn: make(chan bool, 1)}
	for r.werr == nil {
		if !frameBuffered(br, kvwire.MaxFrame) {
			// The next read may block. A drain does not drop what is off
			// the socket: draining is looked at only here, once per burst.
			if r.flush(); r.werr != nil || s.draining.Load() {
				break
			}
		}
		// The frame that wakes the reader: the only read that may block.
		buf, err := kvwire.ReadFrame(br, kvwire.GetBuf(), kvwire.MaxFrame)
		fatal := false
		for err == nil {
			fatal = r.stage(buf)
			if fatal || !r.sealPending() || len(r.frames) >= maxBurst || !frameBuffered(br, kvwire.MaxFrame) {
				break
			}
			buf, err = kvwire.ReadFrame(br, kvwire.GetBuf(), kvwire.MaxFrame)
		}
		r.deliver()
		if err != nil {
			kvwire.PutBuf(buf)
			if errors.Is(err, kvwire.ErrFrame) {
				r.send(s.badFrame(err))
			}
			break
		}
		if fatal {
			break
		}
	}
	r.flush()
}

// frameBuffered reports whether the next ReadFrame can finish without
// reading from the socket: br holds a whole frame, or a length prefix
// ReadFrame refuses before it reads a body.
func frameBuffered(br *bufio.Reader, max int) bool {
	if br.Buffered() < 4 {
		return false
	}
	head, _ := br.Peek(4)
	n := int(binary.BigEndian.Uint32(head))
	return n < 1 || n > max || br.Buffered() >= 4+n
}

// connReader is one connection's reader state; while the reader waits in
// commit, the group's leader owns it.
type connReader struct {
	s      *Server
	bw     *bufio.Writer
	werr   error            // the first failed write: the connection ends
	unsent int              // answers in bw since its last flush
	frames [][]byte         // the staged burst's request frames, pooled
	reqs   []kvwire.Request // frames[i] parsed; kept, so each Token keeps its storage
	muts   int              // the mutations among them
	resps  [][]byte         // their responses, in request order, staged by the leader
	heal   bool             // a lone request was answered StatusRetry: the leader heals
	turn   chan bool        // the leader's word: false, answered; true, lead
	sess   session
}

// stage parses one request frame and adds it to the staged burst — or, if
// it does not join a burst, delivers the staged burst first and serves the
// frame on its own. fatal reports that the connection must close
// (malformed frame, failed write).
func (r *connReader) stage(frame []byte) (fatal bool) {
	s := r.s
	s.ops.Add(1)
	n := len(r.frames)
	if n == len(r.reqs) {
		r.reqs = append(r.reqs, kvwire.Request{})
	}
	req := &r.reqs[n]
	perr := kvwire.ParseRequest(frame, req)
	if perr == nil && joinsBurst(req) {
		r.frames = append(r.frames, frame)
		if isMutation(req.Op) {
			r.muts++
		}
		return false
	}
	r.deliver()
	if r.werr != nil {
		kvwire.PutBuf(frame)
		return true
	}
	start := s.obs.clock()
	var resp []byte
	if perr != nil {
		resp = s.badFrame(perr)
	} else {
		resp = s.execute(nil, req, &r.sess)
	}
	s.obs.observeOp(req.Op, start, r.unsent)
	kvwire.PutBuf(frame)
	if retried(resp) {
		// The heal comes before the answer, and the leader is the one healer.
		r.heal = true
		s.commit(r)
	}
	r.send(resp)
	return perr != nil || r.werr != nil
}

// joinsBurst reports whether a request runs inside a burst: the mutations,
// and the reads that go through the store's own lock to the primary.
// Replica-mode reads are served from views that cannot hold an unsealed
// commit and take the store themselves.
func joinsBurst(req *kvwire.Request) bool {
	return isMutation(req.Op) || req.Op == kvwire.OpGet && req.Mode == kvwire.ModePrimary
}

func isMutation(op byte) bool {
	return op == kvwire.OpPut || op == kvwire.OpDelete || op == kvwire.OpTxn
}

// sealPending reports whether to stage more requests before answering the
// staged ones: on one shard, while the burst holds a mutation. On several,
// a GET staged behind a PUT reads that shard's primary, its backups behind:
// served-readmost measured worse (EXPERIMENTS.md, "Staging on four shards").
func (r *connReader) sealPending() bool { return r.muts > 0 && r.s.db.Shards() == 1 }

// deliver commits the staged burst and buffers its responses.
func (r *connReader) deliver() {
	if len(r.frames) == 0 {
		return
	}
	r.s.commit(r)
	r.send(r.resps...)
	clear(r.resps)
	r.resps = r.resps[:0]
}

// send buffers resps for the connection and returns each buffer to the
// pool. After the first failed write it only returns them.
func (r *connReader) send(resps ...[]byte) {
	for _, b := range resps {
		if r.werr == nil {
			_, r.werr = r.bw.Write(b)
			r.unsent++
		}
		kvwire.PutBuf(b)
	}
}

// flush writes out the buffered answers.
func (r *connReader) flush() {
	if r.werr == nil {
		r.werr = r.bw.Flush()
	}
	r.unsent = 0
}

// retried reports whether resp answers StatusRetry (resp[4] is a response
// frame's status byte, kvwire.BeginFrame).
func retried(resp []byte) bool { return resp[4] == kvwire.StatusRetry }

// commit runs r's staged burst in the server's group and returns once a
// seal covering it has returned, r.resps then holding its answers. The
// first reader to find no group running leads; the others queue and wait
// for the leader's word: answered, or lead the next group. A leader runs
// every queued burst — those that queue while it runs included — through
// the one kv.Burst, seals once, heals if anything was answered
// StatusRetry, releases its members and hands the lead to the first reader
// queued since. It writes its own answers only after that (deliver), so a
// slow peer never holds the lead.
func (s *Server) commit(r *connReader) {
	s.gmu.Lock()
	s.queue = append(s.queue, r)
	led := s.leading
	s.leading = true
	s.gmu.Unlock()
	if led && !<-r.turn {
		return
	}
	g := s.group[:0] // g[0] is the leader: the queue's head when it took it
	frames, muts, conns := 0, 0, 0
	for i := 0; ; i++ {
		if i == len(g) {
			s.gmu.Lock()
			g = append(g, s.queue...)
			clear(s.queue)
			s.queue = s.queue[:0]
			s.gmu.Unlock()
			if i == len(g) {
				break
			}
		}
		m := g[i]
		if len(m.frames) > 0 {
			frames, muts, conns = frames+len(m.frames), muts+m.muts, conns+1
		}
		for j, frame := range m.frames {
			start := s.obs.clock()
			m.resps = append(m.resps, s.execute(s.burst, &m.reqs[j], &m.sess))
			s.obs.observeOp(m.reqs[j].Op, start, m.unsent+len(m.resps))
			kvwire.PutBuf(frame)
		}
		m.frames, m.muts = m.frames[:0], 0
	}
	err := s.burst.Seal()
	if frames > 0 {
		s.obs.observeBurst(frames, muts, conns)
	}
	// A failed seal answers the group with its error; on several shards a
	// request answered StatusRetry may have applied (the others' seals did).
	// A mutation's answer carries a token taken now, once the transaction
	// holding it has committed.
	for _, m := range g {
		for i := range m.resps {
			switch {
			case err != nil:
				kvwire.PutBuf(m.resps[i])
				m.resps[i] = s.errResp(err)
			case m.resps[i] == nil:
				m.resps[i] = s.wrote(&m.sess)
			}
			s.needHeal = s.needHeal || retried(m.resps[i])
		}
		s.needHeal, m.heal = s.needHeal || m.heal, false
	}
	if s.needHeal {
		s.heal()
	}
	for _, m := range g[1:] {
		m.turn <- false
	}
	clear(g)
	s.group = g[:0]
	var next *connReader
	s.gmu.Lock()
	if s.leading = len(s.queue) > 0; s.leading {
		next = s.queue[0]
	}
	s.gmu.Unlock()
	if next != nil {
		next.turn <- true
	}
}

// badFrame counts a malformed frame and encodes its StatusBad response.
func (s *Server) badFrame(err error) []byte {
	s.badFrames.Add(1)
	s.obs.bad.Inc()
	return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusBad, err.Error())
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

// wrote refreshes the session floor after a successful mutation has
// committed and seals the response carrying it.
func (s *Server) wrote(sess *session) []byte {
	sess.tok = s.db.Token(sess.tok)
	return kvwire.AppendOKToken(kvwire.GetBuf(), sess.tok)
}

// execute runs one parsed request and encodes the response into a pooled
// buffer. Requests that join a burst (joinsBurst) go through b; the rest
// find it idle and take the store themselves. A mutation that succeeded
// answers nil: it is staged in b's open transaction, and commit answers it
// with its token once that has committed.
func (s *Server) execute(b *kv.Burst, req *kvwire.Request, sess *session) []byte {
	switch req.Op {
	case kvwire.OpPut:
		if err := b.Put(req.Key, req.Val); err != nil {
			return s.errResp(err)
		}
		return nil

	case kvwire.OpGet:
		buf := kvwire.BeginFrame(kvwire.GetBuf(), kvwire.StatusOK)
		var (
			out []byte
			err error
		)
		if req.Mode == kvwire.ModePrimary {
			out, err = b.GetAppend(req.Key, buf)
		} else {
			out, _, err = s.store.GetAppendAt(req.Key, buf, sess.readOpts(req))
		}
		if err != nil {
			kvwire.PutBuf(out)
			return s.errResp(err)
		}
		return kvwire.EndFrame(out)

	case kvwire.OpDelete:
		if err := b.Delete(req.Key); err != nil {
			return s.errResp(err)
		}
		return nil

	case kvwire.OpScan:
		buf, countOff := kvwire.BeginScanResponse(kvwire.GetBuf())
		n := 0
		entry := func(k, v []byte) error {
			if len(buf)+len(k)+len(v)+6 > kvwire.MaxFrame {
				return errScanTruncated
			}
			buf = kvwire.AppendScanEntry(buf, k, v)
			n++
			return nil
		}
		_, _, err := s.store.ScanAt(req.Key, req.Limit, sess.readOpts(req), entry)
		if err != nil && !errors.Is(err, errScanTruncated) {
			kvwire.PutBuf(buf)
			return s.errResp(err)
		}
		return kvwire.FinishScanResponse(buf, countOff, n)

	case kvwire.OpTxn:
		if err := executeTxn(b, req.Ops); err != nil {
			return s.errResp(err)
		}
		return nil

	case kvwire.OpStats:
		data, err := json.Marshal(s.Stats())
		if err != nil {
			return s.errResp(err)
		}
		buf := kvwire.BeginFrame(kvwire.GetBuf(), kvwire.StatusOK)
		buf = append(buf, data...)
		return kvwire.EndFrame(buf)

	case kvwire.OpPing:
		return kvwire.AppendEmpty(kvwire.GetBuf(), kvwire.StatusOK)

	case kvwire.OpMetrics:
		data, err := json.Marshal(s.Metrics())
		if err != nil {
			return s.errResp(err)
		}
		buf := kvwire.BeginFrame(kvwire.GetBuf(), kvwire.StatusOK)
		buf = append(buf, data...)
		return kvwire.EndFrame(buf)
	}
	// Unreachable: ParseRequest rejects unknown opcodes.
	return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusBad, "unhandled opcode")
}

// executeTxn applies one wire transaction through the store's multi-key
// commit path, inside the burst.
func executeTxn(b *kv.Burst, ops []kvwire.Op) error {
	if len(ops) == 0 {
		return nil
	}
	txn, err := b.Begin()
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
		s.obs.notFound.Inc()
		return kvwire.AppendEmpty(kvwire.GetBuf(), kvwire.StatusNotFound)
	case errors.Is(err, kv.ErrBroken), errors.Is(err, repro.ErrCrashed), errors.Is(err, repro.ErrLeaseExpired):
		// The serving deployment crashed under the store (or this node
		// was deposed): retryable. The group's leader heals before this
		// answer is written (commit); the client retries against the same
		// address.
		s.retries.Add(1)
		s.obs.retry.Inc()
		return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusRetry, "failing over; retry")
	case errors.Is(err, repro.ErrSafetyUnavailable):
		s.obs.degraded.Inc()
		return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusDegraded, err.Error())
	default:
		s.obs.terminal.Inc()
		return kvwire.AppendMsg(kvwire.GetBuf(), kvwire.StatusErr, err.Error())
	}
}

// heal runs on the group's leader between the seal and the handoff, never
// while the leader holds the store: it is the one healer, and the readers
// that met the same crash are answered after it. Lone requests on other
// connections meanwhile park on the store's lock behind the Reopen instead
// of bouncing off kv.ErrBroken. A heal that cannot succeed yet (no
// survivor promoted, lease still expired) leaves the flag set for the next
// group's leader.
func (s *Server) heal() {
	// Both outcomes land in the event ring with the attempt ordinal in A.
	if s.tryHeal() {
		s.needHeal = false
		s.obs.emit(obs.EventHealed, 0, s.healFails+1, 0)
		s.healFails = 0
	} else {
		s.healFails++
		s.obs.emit(obs.EventHealRetry, 0, s.healFails, 0)
	}
}

// tryHeal attempts one heal round. Reports whether the store serves
// again.
func (s *Server) tryHeal() bool {
	err := s.store.Reopen()
	if errors.Is(err, repro.ErrCrashed) && s.admin != nil && !s.admin.AutopilotEnabled() {
		// No autopilot to promote a survivor: offer every shard a failover
		// ourselves (a live primary refuses), then heal the keyspace back
		// to full redundancy in the background.
		for i := 0; i < s.db.Shards(); i++ {
			_ = s.admin.Shard(i).Failover()
		}
		if err = s.store.Reopen(); err == nil {
			for i := 0; i < s.db.Shards(); i++ {
				if rerr := s.admin.Shard(i).RepairAsync(); rerr != nil && !errors.Is(rerr, repro.ErrNotRepairable) {
					s.logf("kvserver: post-failover repair of shard %d: %v", i, rerr)
				}
			}
		}
	}
	if err != nil {
		return false
	}
	s.reopens.Add(1)
	s.obs.reopenCnt.Inc()
	s.logf("kvserver: store reopened on the promoted survivor (%d live keys)", s.store.Len())
	return true
}
