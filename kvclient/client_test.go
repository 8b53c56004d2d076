package kvclient

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/kvserver"
	"repro/internal/kvwire"
	"repro/kv"
)

// mute accepts one connection and reads (discards) everything written to
// it without ever answering — the shape of a server that hangs mid-
// failover. Returns the listen address and a stop func.
func mute(t *testing.T) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String(), func() {
		l.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// TestConnDeathFailsAllInFlight pins the positional-FIFO failure
// contract directly at the conn layer: many pipelined round trips are
// parked on one connection; when the peer dies, every one of them must
// fail promptly — none may hang waiting for a response slot that will
// never be read.
func TestConnDeathFailsAllInFlight(t *testing.T) {
	addr, stop := mute(t)
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cn := newConn(nc)
	defer cn.close(errors.New("test over"))

	const inflight = 32
	errs := make(chan error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &waiter{buf: kvwire.AppendEmpty(nil, kvwire.OpPing), done: make(chan struct{}, 1)}
			errs <- cn.roundTrip(w, 0)
		}()
	}
	// Let the requests land in the pending window, then kill the peer.
	time.Sleep(50 * time.Millisecond)
	stop()

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight operations still blocked 5s after the connection died")
	}
	close(errs)
	n := 0
	for err := range errs {
		n++
		if err == nil {
			t.Fatal("an in-flight operation succeeded against a dead connection")
		}
		if !errors.Is(err, errTransport) {
			t.Fatalf("in-flight failure class = %v, want errTransport", err)
		}
	}
	if n != inflight {
		t.Fatalf("%d of %d in-flight operations reported", n, inflight)
	}
	if !cn.dead() {
		t.Fatal("connection not marked dead after peer loss")
	}
}

// TestOpTimeout pins the per-operation deadline: against a server that
// never answers, an operation with OpTimeout set returns ErrOpTimeout
// in bounded time (no retry — the outcome is unknown), other operations
// in flight on the poisoned connection fail over, and the client dials
// a fresh connection for the next call instead of reusing the corpse.
func TestOpTimeout(t *testing.T) {
	addr, stop := mute(t)
	defer stop()

	c := Dial(addr, Options{Conns: 1, OpTimeout: 100 * time.Millisecond, RetryBudget: -1})
	defer c.Close()

	start := time.Now()
	err := c.Ping()
	if !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("Ping against a mute server = %v, want ErrOpTimeout", err)
	}
	if wait := time.Since(start); wait > 3*time.Second {
		t.Fatalf("deadline took %v to fire with OpTimeout=100ms", wait)
	}

	// The poisoned connection must not be handed out again: the next
	// operation redials (and times out the same way — the server is
	// still mute — rather than failing instantly on a dead conn).
	if err := c.Ping(); !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("second Ping = %v, want ErrOpTimeout on a fresh connection", err)
	}
	if c.Redials() == 0 {
		t.Fatal("client never re-dialed after the poisoned connection")
	}
}

// TestOpTimeoutZeroMeansNoDeadline double-checks the default: with no
// OpTimeout a waiter parks until the connection itself dies, and the
// failure surfaces as the retryable transport class, not a timeout.
func TestOpTimeoutZeroMeansNoDeadline(t *testing.T) {
	addr, stop := mute(t)
	defer stop()

	c := Dial(addr, Options{Conns: 1, RetryBudget: -1})
	defer c.Close()

	done := make(chan error, 1)
	go func() { done <- c.Ping() }()
	select {
	case err := <-done:
		t.Fatalf("Ping returned %v before the connection died", err)
	case <-time.After(300 * time.Millisecond):
	}
	stop()
	select {
	case err := <-done:
		if errors.Is(err, ErrOpTimeout) {
			t.Fatalf("conn death surfaced as ErrOpTimeout: %v", err)
		}
		if err == nil {
			t.Fatal("Ping succeeded against a mute server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Ping still blocked 5s after the connection died")
	}
}

// serve runs a kvserver over a fresh one-shard deployment and returns its
// address; the server closes with the test.
func serve(t *testing.T) string {
	t.Helper()
	db, err := repro.New(repro.Config{Version: repro.V3InlineLog, Backup: repro.ActiveBackup, Backups: 1, DBSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	store, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := kvserver.New(store, kvserver.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// countConn counts the writes on a client connection and fails the
// failAt-th one (0: none), recording how many request frames it carried.
type countConn struct {
	net.Conn
	failAt  int64
	writes  atomic.Int64
	carried atomic.Int64
}

func (cc *countConn) Write(b []byte) (int, error) {
	if cc.writes.Add(1) != cc.failAt {
		return cc.Conn.Write(b)
	}
	for len(b) >= 4 {
		b = b[4+binary.BigEndian.Uint32(b):]
		cc.carried.Add(1)
	}
	return 0, errors.New("injected write failure")
}

// wrapped dials a one-connection Client whose connection is cc; a re-dial
// replaces it with a plain one.
func wrapped(t *testing.T, addr string, cc *countConn) *Client {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc.Conn = nc
	c := Dial(addr, Options{Conns: 1})
	c.conns[0].Store(newConn(cc))
	t.Cleanup(func() { c.Close() })
	return c
}

// putGetRounds runs callers goroutines, each putting a fresh value under
// its own key and reading it back, rounds times, and fails the test if
// any caller errs, reads another's value, or is still running after 20 s.
func putGetRounds(t *testing.T, c *Client, callers, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Appendf(nil, "caller%02d", g)
			for i := range rounds {
				val := fmt.Appendf(nil, "%s-round%d", key, i)
				if err := c.Put(key, val); err != nil {
					t.Errorf("caller %d round %d: Put: %v", g, i, err)
					return
				}
				if got, err := c.Get(key); err != nil || !bytes.Equal(got, val) {
					t.Errorf("caller %d round %d: Get = %q, %v; want %q", g, i, got, err, val)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("callers still blocked after 20s")
	}
}

// TestCoalescedWritesMatchByPosition: sixteen callers pipelining PUTs and
// GETs of their own keys on one connection each read back their own
// value, in fewer writes than requests — the writer sends what has
// gathered in one.
func TestCoalescedWritesMatchByPosition(t *testing.T) {
	const callers, rounds = 16, 100
	cc := &countConn{}
	c := wrapped(t, serve(t), cc)
	putGetRounds(t, c, callers, rounds)
	if c.Redials() != 0 {
		t.Fatalf("%d re-dials: the requests left the wrapped connection", c.Redials())
	}
	reqs, writes := int64(2*callers*rounds), cc.writes.Load()
	if writes >= reqs {
		t.Fatalf("%d requests took %d writes, want fewer", reqs, writes)
	}
	t.Logf("%d requests in %d writes", reqs, writes)
}

// TestFailedCoalescedWriteFailsEveryWaiter: the connection's third write
// fails. Every request it carried fails with the retryable transport class
// and is retried — no caller hangs — and every operation then succeeds on
// the one fresh connection.
func TestFailedCoalescedWriteFailsEveryWaiter(t *testing.T) {
	cc := &countConn{failAt: 3}
	c := wrapped(t, serve(t), cc)
	putGetRounds(t, c, 16, 20)
	carried := cc.carried.Load()
	if carried == 0 {
		t.Fatalf("the failing write never happened (%d writes)", cc.writes.Load())
	}
	if c.Retries() < uint64(carried) {
		t.Fatalf("the failed write carried %d requests, but only %d retries", carried, c.Retries())
	}
	if c.Redials() != 1 {
		t.Fatalf("%d re-dials, want 1", c.Redials())
	}
}

// TestRedialRaceInstallsOneConnection: sixteen callers run operations
// while one pool slot's connection is killed again and again. Every
// operation succeeds, and each kill costs exactly one re-dial: of the
// callers that race on the dead slot, one installs its connection.
func TestRedialRaceInstallsOneConnection(t *testing.T) {
	const callers, kills = 16, 5
	c := Dial(serve(t), Options{Conns: 2})
	defer c.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Appendf(nil, "caller%02d", g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Put(key, key); err != nil {
					t.Errorf("caller %d: Put: %v", g, err)
					return
				}
			}
		}()
	}
	live := func() *conn {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if cn := c.conns[0].Load(); cn != nil && !cn.dead() {
				return cn
			}
		}
		t.Fatal("slot 0 holds no live connection 10s on")
		return nil
	}
	for range kills {
		cn := live()
		time.Sleep(2 * time.Millisecond) // let operations pile onto it
		cn.close(errors.New("killed by the test"))
	}
	live()
	if got := c.Redials(); got != kills {
		t.Fatalf("%d kills cost %d re-dials, want one each", kills, got)
	}
}
