// Package kvclient is the Go client for cmd/kvserver: a connection-
// pooled, pipelining, retrying front door to a replicated kv keyspace
// served over the kvwire protocol.
//
// A Client owns a small pool of TCP connections. Each connection
// pipelines: any number of goroutines may issue operations through the
// same connection, requests are written back to back, and responses —
// which the server returns strictly in order — are matched to callers
// by position. With Options.ReadMode set, reads are served under an
// explicit consistency discipline (read-your-writes, bounded staleness
// or quorum) by the deployment's backup replicas: the client tracks the
// commit tokens mutation responses carry and sends the merged session
// floor with every read. Operations that fail with the retryable wire class
// (StatusRetry: the deployment is failing over) or with a transport
// error are retried with exponential backoff against a fresh connection
// until RetryBudget is exhausted; PUT, DELETE and TXN are last-writer-
// wins idempotent, so re-sending a request whose response was lost is
// safe.
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
	// ReadPrimary serializes every read through the primary — the
	// protocol's classic behavior and the default.
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

	mu    sync.Mutex
	conns []*conn

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
	return &Client{addr: addr, opts: opts, conns: make([]*conn, opts.Conns)}
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
	for i, cn := range c.conns {
		if cn != nil {
			cn.close(ErrClosed)
			c.conns[i] = nil
		}
	}
	return nil
}

// mergeToken folds a mutation response's commit token into the session
// floor, element-wise maximum (see Client.tok).
func (c *Client) mergeToken(t []uint64) {
	c.tokMu.Lock()
	for len(c.tok) < len(t) {
		c.tok = append(c.tok, 0)
	}
	for i, v := range t {
		if v > c.tok[i] {
			c.tok[i] = v
		}
	}
	c.tokMu.Unlock()
}

// trackToken is the mutation parseOK when a read mode is in play: it
// harvests the response's commit token. Old servers send an empty body,
// which parses to no token.
func (c *Client) trackToken(body []byte) error {
	tok, err := kvwire.ParseTokenBody(body, nil)
	if err != nil {
		return err
	}
	c.mergeToken(tok)
	return nil
}

// mutParse returns the StatusOK body parser for mutations: token
// harvesting with a read mode configured, nil (body ignored) otherwise.
func (c *Client) mutParse() func([]byte) error {
	if c.opts.ReadMode == ReadPrimary {
		return nil
	}
	return c.trackToken
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
	_, err := c.do(func(buf []byte) []byte { return kvwire.AppendPut(buf, key, value) }, c.mutParse())
	return err
}

// Get returns the value under key (freshly allocated), served per
// Options.ReadMode.
func (c *Client) Get(key []byte) ([]byte, error) {
	if len(key) > kvwire.MaxKey {
		return nil, ErrTooLarge
	}
	var val []byte
	var tokBuf []uint64
	_, err := c.do(
		func(buf []byte) []byte {
			if c.opts.ReadMode == ReadPrimary {
				return kvwire.AppendGet(buf, key)
			}
			c.tokMu.Lock()
			tokBuf = append(tokBuf[:0], c.tok...)
			c.tokMu.Unlock()
			return kvwire.AppendGetAt(buf, key, c.opts.ReadMode, c.opts.StalenessBound, tokBuf)
		},
		func(body []byte) error {
			val = append([]byte(nil), body...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return val, nil
}

// Delete removes key.
func (c *Client) Delete(key []byte) error {
	if len(key) > kvwire.MaxKey {
		return ErrTooLarge
	}
	_, err := c.do(func(buf []byte) []byte { return kvwire.AppendDelete(buf, key) }, c.mutParse())
	return err
}

// Scan returns up to limit entries in the store's bucket order starting
// at start's natural position (nil = the beginning), served per
// Options.ReadMode. limit is capped at kvwire.MaxScan; the server may
// return fewer entries than exist if the response would outgrow a frame.
func (c *Client) Scan(start []byte, limit int) ([]Entry, error) {
	if len(start) > kvwire.MaxKey {
		return nil, ErrTooLarge
	}
	if limit > kvwire.MaxScan {
		limit = kvwire.MaxScan
	}
	var entries []Entry
	var tokBuf []uint64
	_, err := c.do(
		func(buf []byte) []byte {
			if c.opts.ReadMode == ReadPrimary {
				return kvwire.AppendScan(buf, start, limit)
			}
			c.tokMu.Lock()
			tokBuf = append(tokBuf[:0], c.tok...)
			c.tokMu.Unlock()
			return kvwire.AppendScanAt(buf, start, limit, c.opts.ReadMode, c.opts.StalenessBound, tokBuf)
		},
		func(body []byte) error {
			entries = entries[:0]
			return kvwire.ParseScanBody(body, func(k, v []byte) error {
				entries = append(entries, Entry{
					Key: append([]byte(nil), k...),
					Val: append([]byte(nil), v...),
				})
				return nil
			})
		})
	if err != nil {
		return nil, err
	}
	return entries, nil
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
	_, err := c.do(func(buf []byte) []byte { return kvwire.AppendTxn(buf, wireOps) }, c.mutParse())
	return err
}

// Stats fetches the server's serving counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	_, err := c.do(
		func(buf []byte) []byte { return kvwire.AppendEmpty(buf, kvwire.OpStats) },
		func(body []byte) error { return json.Unmarshal(body, &st) })
	return st, err
}

// Metrics fetches the server's merged observability snapshot: per-opcode
// latency histograms, the deployment's commit/WAL/read-route instruments
// and the failure/repair event ring. Empty when neither the server nor
// the deployment behind it is instrumented. Old servers reject the
// opcode as malformed, which surfaces as a terminal ServerError.
func (c *Client) Metrics() (Metrics, error) {
	var m Metrics
	_, err := c.do(
		func(buf []byte) []byte { return kvwire.AppendEmpty(buf, kvwire.OpMetrics) },
		func(body []byte) error { return json.Unmarshal(body, &m) })
	return m, err
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	_, err := c.do(func(buf []byte) []byte { return kvwire.AppendEmpty(buf, kvwire.OpPing) }, nil)
	return err
}

// do runs one operation with the client's retry policy: encode sends
// the request (into a pooled buffer), parseOK consumes a StatusOK body
// (nil for empty-bodied operations).
func (c *Client) do(encode func([]byte) []byte, parseOK func([]byte) error) (status byte, err error) {
	deadline := time.Now().Add(c.opts.RetryBudget)
	backoff := 200 * time.Microsecond
	for attempt := 0; ; attempt++ {
		if c.closed.Load() {
			return 0, ErrClosed
		}
		status, err = c.doOnce(encode, parseOK)
		if err == nil {
			return status, nil
		}
		if !retryable(err) || c.opts.RetryBudget < 0 || time.Now().After(deadline) {
			if retryable(err) {
				return status, fmt.Errorf("%w (last error: %v)", ErrRetryBudget, err)
			}
			return status, err
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
func (c *Client) doOnce(encode func([]byte) []byte, parseOK func([]byte) error) (byte, error) {
	cn, err := c.conn(int(c.next.Add(1)))
	if err != nil {
		return 0, fmt.Errorf("%w: dial: %v", errTransport, err)
	}
	body, err := cn.roundTrip(encode, c.opts.OpTimeout)
	if err != nil {
		return 0, err
	}
	defer kvwire.PutBuf(body)
	status := body[0]
	switch status {
	case kvwire.StatusOK:
		if parseOK != nil {
			if err := parseOK(body[1:]); err != nil {
				return status, err
			}
		}
		return status, nil
	case kvwire.StatusNotFound:
		return status, ErrNotFound
	case kvwire.StatusRetry:
		return status, fmt.Errorf("%w: %s", errWireRetry, body[1:])
	case kvwire.StatusDegraded:
		return status, fmt.Errorf("%w: %s", ErrDegraded, body[1:])
	case kvwire.StatusErr:
		return status, &ServerError{Msg: string(body[1:])}
	case kvwire.StatusBad:
		// The server is about to close the connection; surface as a
		// terminal protocol error.
		return status, &ServerError{Msg: "protocol: " + string(body[1:])}
	default:
		return status, &ServerError{Msg: fmt.Sprintf("unknown status %d", status)}
	}
}

// conn returns pool slot i%Conns, dialing or re-dialing it if needed.
func (c *Client) conn(i int) (*conn, error) {
	slot := i % c.opts.Conns
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if cn := c.conns[slot]; cn != nil && !cn.dead() {
		return cn, nil
	}
	if c.conns[slot] != nil {
		c.redials.Add(1)
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cn := newConn(nc)
	c.conns[slot] = cn
	return cn, nil
}

// conn is one pipelining connection: writes serialize on mu, responses
// are matched to callers in FIFO order by the reader goroutine. The
// waiter is enqueued before its request bytes go out, so a response can
// never outrun its waiter.
type conn struct {
	c  net.Conn
	mu sync.Mutex // serializes request writes + pending enqueue
	bw *bufio.Writer
	// pending is the client-side in-flight window: a caller issuing
	// request N+cap blocks until response N has been read, bounding
	// per-connection pipelining depth.
	pending chan chan result
	once    sync.Once
	dying   chan struct{}         // closed on first failure
	errp    atomic.Pointer[error] // set before dying closes
}

type result struct {
	body []byte // pooled; receiver recycles
	err  error
}

func newConn(nc net.Conn) *conn {
	cn := &conn{
		c:       nc,
		bw:      bufio.NewWriterSize(nc, 16<<10),
		pending: make(chan chan result, 128),
		dying:   make(chan struct{}),
	}
	go cn.readLoop()
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

// roundTrip writes one request and waits for its response body (pooled;
// caller recycles). A positive opTimeout bounds the wait; on expiry the
// connection is poisoned (see Options.OpTimeout) and ErrOpTimeout is
// returned.
func (cn *conn) roundTrip(encode func([]byte) []byte, opTimeout time.Duration) ([]byte, error) {
	waiter := make(chan result, 1)
	buf := encode(kvwire.GetBuf())
	cn.mu.Lock()
	if cn.dead() {
		cn.mu.Unlock()
		kvwire.PutBuf(buf)
		return nil, fmt.Errorf("%w: %v", errTransport, *cn.errp.Load())
	}
	// Enqueue before writing: the read loop matches responses to
	// waiters positionally, so the waiter must exist before the server
	// can possibly answer. The dying case keeps a full window from
	// deadlocking against a read loop that has stopped draining.
	select {
	case cn.pending <- waiter:
	case <-cn.dying:
		cn.mu.Unlock()
		kvwire.PutBuf(buf)
		return nil, fmt.Errorf("%w: %v", errTransport, *cn.errp.Load())
	}
	_, werr := cn.bw.Write(buf)
	if werr == nil {
		werr = cn.bw.Flush()
	}
	cn.mu.Unlock()
	kvwire.PutBuf(buf)
	if werr != nil {
		// The waiter is already queued; poisoning the connection makes
		// the read loop fail it (and everything else in flight).
		cn.close(werr)
		return nil, fmt.Errorf("%w: write: %v", errTransport, werr)
	}
	var res result
	if opTimeout > 0 {
		timer := time.NewTimer(opTimeout)
		select {
		case res = <-waiter:
			timer.Stop()
		case <-timer.C:
			// The read loop matches responses to waiters positionally, so
			// an abandoned waiter cannot be skipped: kill the connection.
			// Its read loop then settles this waiter (and fails the rest
			// of the in-flight window, which retries elsewhere).
			terr := fmt.Errorf("%w after %v", ErrOpTimeout, opTimeout)
			cn.close(terr)
			if res = <-waiter; res.body != nil {
				// The response raced the close; the outcome still counts
				// as unknown to the caller, who asked for bounded latency.
				kvwire.PutBuf(res.body)
			}
			return nil, terr
		}
	} else {
		res = <-waiter
	}
	if res.err != nil {
		return nil, fmt.Errorf("%w: %v", errTransport, res.err)
	}
	return res.body, nil
}

// readLoop delivers responses to waiters in order; on any read error it
// poisons the connection and fails every pending waiter (their
// operations retry on a fresh connection). The drain runs under mu:
// once it holds the lock, every enqueued waiter is in the channel and
// no new one can enter (roundTrip checks dead() under the same lock),
// so nothing is orphaned.
func (cn *conn) readLoop() {
	br := bufio.NewReaderSize(cn.c, 16<<10)
	for {
		buf, err := kvwire.ReadFrame(br, kvwire.GetBuf(), kvwire.MaxFrame)
		if err == nil {
			select {
			case w := <-cn.pending:
				w <- result{body: buf}
				continue
			default:
				// A response nobody asked for: protocol desync.
				err = errors.New("kvclient: unsolicited response")
				kvwire.PutBuf(buf)
			}
		}
		cn.close(err)
		cn.mu.Lock()
		for {
			select {
			case w := <-cn.pending:
				w <- result{err: err}
			default:
				cn.mu.Unlock()
				return
			}
		}
	}
}
