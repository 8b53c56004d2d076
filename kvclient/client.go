// Package kvclient is the Go client for cmd/kvserver: a connection-
// pooled, pipelining, retrying front door to a replicated kv keyspace
// served over the kvwire protocol.
//
// A Client owns a small pool of TCP connections. Each connection
// pipelines: any number of goroutines may issue operations through the
// same connection, and responses — which the server returns strictly in
// order — are matched to callers by position. A caller only appends its
// request to the connection's write buffer. One writer goroutine per
// connection yields once, so that callers already runnable append theirs
// too, then sends the whole buffer with one write: requests that arrive
// together leave together, and the server commits them as one burst.
// With Options.ReadMode set, reads are served under an explicit
// consistency discipline (read-your-writes, bounded staleness or quorum)
// by the deployment's backup replicas: the client tracks the commit tokens
// mutation responses carry and sends the merged session floor with every
// read. Operations that fail with the retryable wire class
// (StatusRetry: the deployment is failing over) or with a transport
// error are retried with exponential backoff against a fresh connection
// until RetryBudget is exhausted; PUT, DELETE and TXN are last-writer-
// wins idempotent, so re-sending a request whose response was lost is
// safe (a re-sent DELETE that finds its key gone reports success).
//
// Error taxonomy mirrors the wire statuses: ErrNotFound (absent key),
// ErrDegraded (safety level unmet — the mutation may be durable but was
// not acknowledged at the deployment's configured discipline),
// ErrRetryBudget (the failover outlasted the client's patience, wrapped
// around the last underlying error), ErrOpTimeout (one attempt outlived
// Options.OpTimeout; the outcome is unknown and the connection is
// abandoned) and ServerError (terminal operation errors, message
// carried from the server).
package kvclient

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvwire"
	"repro/internal/obs"
)

// Client errors.
var (
	// ErrNotFound is returned by Get and Delete for an absent key.
	ErrNotFound = errors.New("kvclient: key not found")
	// ErrDegraded is returned when the deployment cannot meet its
	// configured safety level: the operation may be durable on the
	// serving node but was not acknowledged at full strength.
	ErrDegraded = errors.New("kvclient: deployment degraded below its safety level")
	// ErrRetryBudget is returned when retryable failures (failover in
	// progress, dropped connections) outlast Options.RetryBudget.
	ErrRetryBudget = errors.New("kvclient: retry budget exhausted")
	// ErrClosed is returned by operations on a closed Client.
	ErrClosed = errors.New("kvclient: client is closed")
	// ErrOpTimeout is returned when a single attempt outlives
	// Options.OpTimeout. The operation's outcome is unknown: the request
	// may have been applied and its response lost with the poisoned
	// connection.
	ErrOpTimeout = errors.New("kvclient: operation timed out")
	// ErrTooLarge is returned for keys or values beyond the protocol
	// limits, before anything hits the wire.
	ErrTooLarge = errors.New("kvclient: key or value exceeds the protocol limit")
)

// ServerError is a terminal operation error reported by the server
// (StatusErr): retrying the identical request fails identically.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "kvclient: server: " + e.Msg }

// Read modes for Options.ReadMode: where GETs and SCANs may be served.
// They mirror the repro facade's consistency knob (see repro.ReadOpts).
const (
	// ReadPrimary reads the primary's view — served by a backup that has
	// applied all the primary committed, else the primary; the default.
	ReadPrimary byte = kvwire.ModePrimary
	// ReadYourWrites lets backup replicas serve reads that have caught
	// up to the session's last acknowledged mutation (the client tracks
	// the commit tokens mutation responses carry and sends the merged
	// floor with every read).
	ReadYourWrites byte = kvwire.ModeRYW
	// ReadBounded lets any backup within Options.StalenessBound commit
	// sequences of the primary serve.
	ReadBounded byte = kvwire.ModeBounded
	// ReadQuorum reads a majority of the replica group and serves the
	// freshest view, read-repairing laggards.
	ReadQuorum byte = kvwire.ModeQuorum
)

// Options tunes a Client. The zero value is serviceable.
type Options struct {
	// Conns is the connection-pool size (default 4). Operations are
	// spread across the pool round-robin; each connection pipelines
	// independently.
	Conns int
	// ReadMode routes GETs and SCANs through the deployment's replica
	// read views (ReadYourWrites, ReadBounded, ReadQuorum). The default
	// ReadPrimary sends byte-identical classic frames; any other mode
	// appends the kvwire consistency tail, which pre-extension servers
	// reject as malformed — point non-default modes only at servers
	// that speak it.
	ReadMode byte
	// StalenessBound is ReadBounded's advertised lag bound in commit
	// sequences (default 128).
	StalenessBound uint64
	// DialTimeout bounds each dial (default 5s).
	DialTimeout time.Duration
	// RetryBudget bounds the total time one operation may spend
	// retrying the retryable error class (default 15s). Zero uses the
	// default; negative disables retries.
	RetryBudget time.Duration
	// OpTimeout bounds one attempt's round trip on the wire (0 = no
	// deadline). Responses are matched to callers by position, so a
	// timed-out waiter cannot be skipped: the deadline poisons the
	// connection — failing every operation in flight on it, which
	// retry on fresh connections — and the timed-out call itself
	// returns ErrOpTimeout without retrying, since its outcome is
	// unknown and the caller asked for bounded latency.
	OpTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 15 * time.Second
	}
	if o.StalenessBound == 0 {
		o.StalenessBound = 128
	}
	return o
}

// Entry is one key/value pair returned by Scan.
type Entry struct {
	Key []byte
	Val []byte
}

// Op is one operation of a Txn: a put (Val set) or a delete.
type Op struct {
	Key    []byte
	Val    []byte
	Delete bool
}

// Stats mirrors the server's OpStats document.
type Stats = kvwire.Stats

// Metrics mirrors the server's OpMetrics document: the served
// deployment's observability snapshot merged with the server's own
// instruments (the same type repro.Metrics aliases).
type Metrics = obs.Snapshot

// Client is a pooled, pipelining kvserver client. Safe for concurrent
// use.
type Client struct {
	addr   string
	opts   Options
	next   atomic.Uint64
	closed atomic.Bool

	// conns is the pool; mu is taken only to install a re-dialed slot.
	mu    sync.Mutex
	conns []atomic.Pointer[conn]

	// Session commit token (non-default ReadMode only): the element-wise
	// maximum over every mutation response's token. Pipelined responses
	// may land out of order across the pool, so merging — never
	// overwriting — keeps the floor monotone.
	tokMu sync.Mutex
	tok   []uint64

	retries atomic.Uint64
	redials atomic.Uint64
}

// Dial connects a Client to a kvserver address. Connections are
// established lazily, so Dial succeeds even while the server is still
// coming up; the first operation pays the dial.
func Dial(addr string, opts Options) *Client {
	opts = opts.withDefaults()
	return &Client{addr: addr, opts: opts, conns: make([]atomic.Pointer[conn], opts.Conns)}
}

// Retries returns the number of operation retries performed (failovers
// ridden out, connections re-dialed mid-operation).
func (c *Client) Retries() uint64 { return c.retries.Load() }

// Redials returns the number of pool connections re-established after
// a transport failure.
func (c *Client) Redials() uint64 { return c.redials.Load() }

// Close tears down the pool. In-flight operations fail.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.conns {
		if cn := c.conns[i].Swap(nil); cn != nil {
			cn.close(ErrClosed)
		}
	}
	return nil
}

// trackToken folds a mutation response's commit token into the session
// floor, element-wise maximum (see Client.tok). Old servers send an empty
// body, which parses to no token.
func (c *Client) trackToken(body []byte) error {
	t, err := kvwire.ParseTokenBody(body, nil)
	if err != nil {
		return err
	}
	c.tokMu.Lock()
	defer c.tokMu.Unlock()
	for len(c.tok) < len(t) {
		c.tok = append(c.tok, 0)
	}
	for i, v := range t {
		c.tok[i] = max(c.tok[i], v)
	}
	return nil
}

// Token returns a copy of the session's commit token — the floor a
// subsequent read-your-writes read is guaranteed to observe. Empty until
// the first mutation under a non-default ReadMode.
func (c *Client) Token() []uint64 {
	c.tokMu.Lock()
	defer c.tokMu.Unlock()
	return append([]uint64(nil), c.tok...)
}

// Put stores value under key.
func (c *Client) Put(key, value []byte) error {
	if len(key) > kvwire.MaxKey || len(value) > kvwire.MaxValue {
		return ErrTooLarge
	}
	return c.do(&request{op: kvwire.OpPut, key: key, val: value})
}

// Get returns the value under key (freshly allocated), served per
// Options.ReadMode.
func (c *Client) Get(key []byte) ([]byte, error) {
	if len(key) > kvwire.MaxKey {
		return nil, ErrTooLarge
	}
	r := request{op: kvwire.OpGet, key: key}
	err := c.do(&r)
	return r.val, err
}

// Delete removes key.
func (c *Client) Delete(key []byte) error {
	if len(key) > kvwire.MaxKey {
		return ErrTooLarge
	}
	return c.do(&request{op: kvwire.OpDelete, key: key})
}

// Scan returns up to limit entries in the store's bucket order starting
// at start's natural position (nil = the beginning), served per
// Options.ReadMode. limit is capped at kvwire.MaxScan; the server may
// return fewer entries than exist if the response would outgrow a frame.
func (c *Client) Scan(start []byte, limit int) ([]Entry, error) {
	if len(start) > kvwire.MaxKey {
		return nil, ErrTooLarge
	}
	r := request{op: kvwire.OpScan, key: start, limit: min(limit, kvwire.MaxScan)}
	if err := c.do(&r); err != nil {
		return nil, err
	}
	return r.entries, nil
}

// Txn applies a batch of puts and deletes through the server's
// multi-key transaction: on a single-shard deployment the batch commits
// atomically.
func (c *Client) Txn(ops []Op) error {
	if len(ops) > kvwire.MaxTxn {
		return fmt.Errorf("%w: %d ops (max %d)", ErrTooLarge, len(ops), kvwire.MaxTxn)
	}
	wireOps := make([]kvwire.Op, len(ops))
	for i, op := range ops {
		if len(op.Key) > kvwire.MaxKey || len(op.Val) > kvwire.MaxValue {
			return ErrTooLarge
		}
		wireOps[i] = kvwire.Op{Kind: kvwire.TxnPut, Key: op.Key, Val: op.Val}
		if op.Delete {
			wireOps[i].Kind = kvwire.TxnDelete
		}
	}
	return c.do(&request{op: kvwire.OpTxn, ops: wireOps})
}

// Stats fetches the server's serving counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.do(&request{op: kvwire.OpStats, doc: &st})
	return st, err
}

// Metrics fetches the server's merged observability snapshot: per-opcode
// latency histograms, the deployment's commit/WAL/read-route instruments
// and the failure/repair event ring. Empty when neither the server nor
// the deployment behind it is instrumented. Old servers reject the
// opcode as malformed, which surfaces as a terminal ServerError.
func (c *Client) Metrics() (Metrics, error) {
	var m Metrics
	err := c.do(&request{op: kvwire.OpMetrics, doc: &m})
	return m, err
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	return c.do(&request{op: kvwire.OpPing})
}

// request is one operation's arguments and result: a struct read by two
// switches, not a pair of closures, so a round trip allocates nothing.
type request struct {
	op      byte
	key     []byte // Scan's start
	val     []byte // Put's value; Get's answer
	limit   int
	ops     []kvwire.Op
	entries []Entry
	doc     any // Stats' or Metrics' destination
}

// encode appends r's request frame to buf. Reads outside ReadPrimary carry
// the session token, read under tokMu.
func (c *Client) encode(buf []byte, r *request) []byte {
	switch mode := c.opts.ReadMode; {
	case r.op == kvwire.OpPut:
		return kvwire.AppendPut(buf, r.key, r.val)
	case r.op == kvwire.OpDelete:
		return kvwire.AppendDelete(buf, r.key)
	case r.op == kvwire.OpTxn:
		return kvwire.AppendTxn(buf, r.ops)
	case r.op == kvwire.OpGet && mode == ReadPrimary:
		return kvwire.AppendGet(buf, r.key)
	case r.op == kvwire.OpScan && mode == ReadPrimary:
		return kvwire.AppendScan(buf, r.key, r.limit)
	case r.op == kvwire.OpGet, r.op == kvwire.OpScan:
		c.tokMu.Lock()
		defer c.tokMu.Unlock()
		if r.op == kvwire.OpGet {
			return kvwire.AppendGetAt(buf, r.key, mode, c.opts.StalenessBound, c.tok)
		}
		return kvwire.AppendScanAt(buf, r.key, r.limit, mode, c.opts.StalenessBound, c.tok)
	}
	return kvwire.AppendEmpty(buf, r.op)
}

// parse consumes a StatusOK body into r. The body is the waiter's buffer,
// recycled once the round trip returns, so what r keeps is copied.
func (c *Client) parse(r *request, body []byte) error {
	switch r.op {
	case kvwire.OpPut, kvwire.OpDelete, kvwire.OpTxn:
		if c.opts.ReadMode != ReadPrimary {
			return c.trackToken(body)
		}
	case kvwire.OpGet:
		r.val = append([]byte(nil), body...)
	case kvwire.OpScan:
		r.entries = r.entries[:0]
		return kvwire.ParseScanBody(body, func(k, v []byte) error {
			r.entries = append(r.entries, Entry{
				Key: append([]byte(nil), k...),
				Val: append([]byte(nil), v...),
			})
			return nil
		})
	case kvwire.OpStats, kvwire.OpMetrics:
		return json.Unmarshal(body, r.doc)
	}
	return nil
}

// do runs one operation with the client's retry policy. A re-sent DELETE
// that finds its key absent is done: an earlier attempt may have removed it.
func (c *Client) do(r *request) error {
	deadline := time.Now().Add(c.opts.RetryBudget)
	backoff := 200 * time.Microsecond
	for resent := false; ; resent = true {
		if c.closed.Load() {
			return ErrClosed
		}
		err := c.doOnce(r)
		if err == nil || resent && r.op == kvwire.OpDelete && err == ErrNotFound {
			return nil
		}
		if !retryable(err) || c.opts.RetryBudget < 0 || time.Now().After(deadline) {
			if retryable(err) {
				return fmt.Errorf("%w (last error: %v)", ErrRetryBudget, err)
			}
			return err
		}
		c.retries.Add(1)
		time.Sleep(backoff)
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// retryable classifies an error for the retry loop: only the wire's retry
// class and transport failures are retryable. ErrDegraded is not — a
// deployment stuck below its safety level would turn every call into a
// full budget wait.
func retryable(err error) bool {
	return errors.Is(err, errWireRetry) || errors.Is(err, errTransport)
}

// Sentinel classes used inside the retry loop.
var (
	errWireRetry = errors.New("kvclient: server failing over")
	errTransport = errors.New("kvclient: connection failure")
)

// doOnce performs one attempt over one pooled connection.
func (c *Client) doOnce(r *request) error {
	cn, err := c.conn(int(c.next.Add(1)))
	if err != nil {
		return fmt.Errorf("%w: dial: %v", errTransport, err)
	}
	w := waiters.Get().(*waiter)
	defer waiters.Put(w)
	w.buf, w.err = c.encode(w.buf, r), nil
	if err := cn.roundTrip(w, c.opts.OpTimeout); err != nil {
		return err
	}
	body := w.buf
	switch body[0] {
	case kvwire.StatusOK:
		return c.parse(r, body[1:])
	case kvwire.StatusNotFound:
		return ErrNotFound
	case kvwire.StatusRetry:
		return fmt.Errorf("%w: %s", errWireRetry, body[1:])
	case kvwire.StatusDegraded:
		return fmt.Errorf("%w: %s", ErrDegraded, body[1:])
	case kvwire.StatusErr:
		return &ServerError{Msg: string(body[1:])}
	case kvwire.StatusBad:
		// The server is about to close the connection; surface as a
		// terminal protocol error.
		return &ServerError{Msg: "protocol: " + string(body[1:])}
	default:
		return &ServerError{Msg: fmt.Sprintf("unknown status %d", body[0])}
	}
}

// conn returns pool slot i%Conns: one atomic load, unless the slot is
// empty or its connection dead. Then it dials a replacement outside mu, so
// a slow peer stalls only this slot's callers. Of the callers racing on one
// dead slot, the first to finish installs its connection; the others close
// theirs and use it.
func (c *Client) conn(i int) (*conn, error) {
	slot := &c.conns[i%len(c.conns)]
	old := slot.Load()
	if old != nil && !old.dead() {
		return old, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		nc.Close()
		return nil, ErrClosed
	}
	if cur := slot.Load(); cur != old {
		nc.Close()
		return cur, nil
	}
	if old != nil {
		c.redials.Add(1)
	}
	cn := newConn(nc)
	slot.Store(cn)
	return cn, nil
}

// conn is one pipelining connection. A caller enqueues its waiter and
// appends its request to wbuf in one critical section of mu, so the order
// of the waiters is the order of the bytes, and a waiter exists before the
// server can see its request. The writer goroutine sends wbuf; the reader
// goroutine matches responses to waiters in FIFO order.
type conn struct {
	c  net.Conn
	mu sync.Mutex // orders a waiter's enqueue with its request's bytes
	// pending is the client-side in-flight window: a caller issuing
	// request N+cap blocks (under mu) until response N has been read.
	pending chan *waiter
	// wbuf holds the requests appended since the writer last took it, under
	// a lock of its own: a caller may wait under mu for the window to open.
	wmu   sync.Mutex
	wbuf  []byte
	wake  chan struct{} // one token: wbuf has bytes for the writer
	once  sync.Once
	dying chan struct{}         // closed on first failure
	errp  atomic.Pointer[error] // set before dying closes
}

// waiter is one request in flight, pooled: its frame is copied out of buf,
// and the read loop swaps the response in (or sets err), then signals done.
type waiter struct {
	buf  []byte
	err  error
	done chan struct{}
}

var waiters = sync.Pool{New: func() any { return &waiter{done: make(chan struct{}, 1)} }}

func newConn(nc net.Conn) *conn {
	cn := &conn{
		c:       nc,
		pending: make(chan *waiter, 128),
		wake:    make(chan struct{}, 1),
		dying:   make(chan struct{}),
	}
	go cn.readLoop()
	go cn.writeLoop()
	return cn
}

func (cn *conn) dead() bool { return cn.errp.Load() != nil }

func (cn *conn) close(err error) {
	cn.once.Do(func() {
		cn.errp.Store(&err)
		close(cn.dying)
		cn.c.Close()
	})
}

// roundTrip sends the request frame in w.buf and waits for its response,
// which it leaves in w.buf. A positive opTimeout bounds the wait; on
// expiry the connection is poisoned (see Options.OpTimeout) and
// ErrOpTimeout is returned.
func (cn *conn) roundTrip(w *waiter, opTimeout time.Duration) error {
	cn.mu.Lock()
	if cn.dead() {
		cn.mu.Unlock()
		return fmt.Errorf("%w: %v", errTransport, *cn.errp.Load())
	}
	// The dying case keeps a full window from deadlocking against a read
	// loop that has stopped draining.
	select {
	case cn.pending <- w:
	case <-cn.dying:
		cn.mu.Unlock()
		return fmt.Errorf("%w: %v", errTransport, *cn.errp.Load())
	}
	cn.wmu.Lock()
	cn.wbuf = append(cn.wbuf, w.buf...)
	first := len(cn.wbuf) == len(w.buf)
	cn.wmu.Unlock()
	cn.mu.Unlock()
	if first {
		select {
		case cn.wake <- struct{}{}:
		default:
		}
	}
	if opTimeout > 0 {
		timer := time.NewTimer(opTimeout)
		select {
		case <-w.done:
			timer.Stop()
		case <-timer.C:
			// The read loop matches responses to waiters positionally, so
			// an abandoned waiter cannot be skipped: kill the connection.
			// Its read loop then settles this waiter (and fails the rest
			// of the in-flight window, which retries elsewhere). A response
			// that raced the close still counts as unknown to the caller,
			// who asked for bounded latency.
			terr := fmt.Errorf("%w after %v", ErrOpTimeout, opTimeout)
			cn.close(terr)
			<-w.done
			return terr
		}
	} else {
		<-w.done
	}
	if w.err != nil {
		return fmt.Errorf("%w: %v", errTransport, w.err)
	}
	return nil
}

// writeLoop sends what callers have appended to wbuf, everything gathered
// in one write. Before it takes the buffer it yields once: the scheduler
// runs a goroutine it has just woken next, so without the yield the writer
// woken by a burst's first caller would send that request alone, ahead of
// the callers that are already runnable (the read loop has just woken
// them with their responses) and about to append theirs. A failed write
// poisons the connection; the read loop then fails every waiter.
func (cn *conn) writeLoop() {
	var out []byte
	for {
		select {
		case <-cn.wake:
		case <-cn.dying:
			return
		}
		runtime.Gosched()
		cn.wmu.Lock()
		out, cn.wbuf = cn.wbuf, out[:0]
		cn.wmu.Unlock()
		if _, err := cn.c.Write(out); err != nil {
			cn.close(err)
			return
		}
	}
}

// readLoop delivers responses to waiters in order; on any read error it
// poisons the connection and fails every pending waiter with its first
// error (their operations retry on a fresh connection). The drain runs
// under mu: once it holds the lock, every enqueued waiter
// is in the channel and no new one can enter (roundTrip checks dead()
// under the same lock), so nothing is orphaned.
func (cn *conn) readLoop() {
	br := bufio.NewReaderSize(cn.c, 16<<10)
	var buf []byte
	for {
		frame, err := kvwire.ReadFrame(br, buf, kvwire.MaxFrame)
		if err == nil {
			select {
			case w := <-cn.pending:
				w.buf, buf = frame, w.buf[:0]
				w.done <- struct{}{}
				continue
			default:
				// A response nobody asked for: protocol desync.
				err = errors.New("kvclient: unsolicited response")
			}
		}
		cn.close(err)
		err = *cn.errp.Load()
		cn.mu.Lock()
		for {
			select {
			case w := <-cn.pending:
				w.err = err
				w.done <- struct{}{}
			default:
				cn.mu.Unlock()
				return
			}
		}
	}
}
