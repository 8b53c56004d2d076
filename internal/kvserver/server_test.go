package kvserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/kvwire"
	"repro/kv"
	"repro/kvclient"
)

// serve builds a deployment, a store, a Server and a live listener.
func serve(t *testing.T, cfg repro.Config) (*Server, repro.Admin, string) {
	t.Helper()
	if cfg.Version == 0 {
		cfg.Version = repro.V3InlineLog
	}
	if cfg.Backup == 0 {
		cfg.Backup = repro.ActiveBackup
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 4 << 20
	}
	var db repro.DB
	db, err := repro.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	admin, _ := db.(repro.Admin)
	return srv, admin, l.Addr().String()
}

// TestServerConcurrentClients is the end-to-end zero-loss contract over
// real sockets: concurrent clients stream versioned writes, the primary
// is crashed mid-load, the clients ride out the failover on retries,
// the server drains gracefully — and after a re-serve on a fresh
// listener every acknowledged put is readable at or after its acked
// version.
func TestServerConcurrentClients(t *testing.T) {
	// K=3 at quorum keeps the safety level through the loss of the
	// primary; the autopilot performs the promotion unattended.
	srv, admin, addr := serve(t, repro.Config{
		Backups: 3,
		Safety:  repro.QuorumSafe,
		Autopilot: repro.AutopilotConfig{
			HeartbeatPeriod: 500 * time.Microsecond,
			AutoFailover:    true,
		},
	})

	const (
		clients    = 12
		perClient  = 60 // keys per client, written twice (two versions)
		crashAfter = 200
	)
	var (
		acked    [clients * perClient]atomic.Int64 // newest acked version per key
		ackedOps atomic.Int64
		wg       sync.WaitGroup
	)
	for i := range acked {
		acked[i].Store(-1)
	}
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		for ackedOps.Load() < crashAfter {
			time.Sleep(100 * time.Microsecond)
		}
		if err := admin.CrashPrimary(); err != nil {
			t.Errorf("crash injection: %v", err)
		}
	}()

	key := func(k int) []byte { return []byte(fmt.Sprintf("key%06d", k)) }
	val := func(k int, ver int64) []byte { return []byte(fmt.Sprintf("val-%d-ver%d", k, ver)) }
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := kvclient.Dial(addr, kvclient.Options{Conns: 2, RetryBudget: 30 * time.Second})
			defer cl.Close()
			for ver := int64(0); ver < 2; ver++ {
				for i := 0; i < perClient; i++ {
					k := c*perClient + i // disjoint ranges: one writer per key
					if err := cl.Put(key(k), val(k, ver)); err != nil {
						t.Errorf("client %d: put key %d ver %d: %v", c, k, ver, err)
						return
					}
					acked[k].Store(ver)
					ackedOps.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	<-crashed
	// Usually a request meets the dead primary and the healer reopens the
	// store. A crash that lands between a PUT's probe and its Begin is
	// taken over by that Begin's admission with nobody told — safe at
	// quorum, and no Reopen — so the failover itself is what to look for.
	if admin.(*repro.Cluster).Generation() == 0 {
		t.Errorf("no failover happened (crash not observed?); %d reopens", srv.Stats().Reopens)
	}

	// Graceful drain, then serve the same store on a fresh listener —
	// the restart a rolling deploy would do.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv2 := New(srv.store, Config{Logf: t.Logf})
	defer srv2.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l)

	audit := kvclient.Dial(l.Addr().String(), kvclient.Options{Conns: 2, RetryBudget: 30 * time.Second})
	defer audit.Close()
	for k := range acked {
		want := acked[k].Load()
		if want < 0 {
			continue
		}
		got, err := audit.Get(key(k))
		if err != nil {
			t.Errorf("acked key %d (ver %d) unreadable after drain+reconnect: %v", k, want, err)
			continue
		}
		if !bytes.Equal(got, val(k, want)) && !bytes.Equal(got, val(k, want+1)) {
			t.Errorf("acked key %d: read %q, want version >= %d", k, got, want)
		}
	}
}

// TestServerGarbageFrames throws malformed bytes at the listener —
// random junk, a huge declared length, truncated frames, an unknown
// opcode — and requires StatusBad + connection close for each, with a
// well-formed client still being served throughout.
func TestServerGarbageFrames(t *testing.T) {
	srv, _, addr := serve(t, repro.Config{Backups: 1})
	defer srv.Close()

	good := kvclient.Dial(addr, kvclient.Options{Conns: 1})
	defer good.Close()
	if err := good.Put([]byte("canary"), []byte("alive")); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"http", []byte("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")},
		{"zero-length", []byte{0, 0, 0, 0}},
		{"huge-length", []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}},
		{"unknown-opcode", kvwire.AppendEmpty(nil, 0x7f)},
		{"truncated-put", func() []byte {
			// Declares a 100-byte body, delivers 3, then closes.
			b := []byte{0, 0, 0, 100, byte(kvwire.OpPut), 0}
			return b
		}()},
		{"trailing-bytes", func() []byte {
			b := kvwire.AppendGet(nil, []byte("k"))
			b = append(b, 0xEE) // extra byte inside the declared body
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.data); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(time.Second))
			// The server either answers StatusBad and closes, or (for a
			// declared-but-undelivered body) just waits; close our side
			// and expect no hang either way.
			buf := make([]byte, 0, 64)
			buf, err = kvwire.ReadFrame(c, buf, kvwire.MaxFrame)
			if err == nil {
				if buf[0] != kvwire.StatusBad {
					t.Fatalf("garbage answered with status %d, want StatusBad", buf[0])
				}
				// After StatusBad the server closes: the next read ends.
				if _, err := kvwire.ReadFrame(c, buf, kvwire.MaxFrame); err == nil {
					t.Fatal("connection still serving after StatusBad")
				}
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, kvwire.ErrFrame) {
				// truncated-put: the server is still waiting for the
				// declared body; our deferred close unblocks it.
				var nerr net.Error
				if !errors.As(err, &nerr) || !nerr.Timeout() {
					t.Fatalf("unexpected read result: %v", err)
				}
			}
		})
	}

	// The well-formed client rode through all of it.
	v, err := good.Get([]byte("canary"))
	if err != nil || string(v) != "alive" {
		t.Fatalf("well-formed client disturbed by garbage peers: %q, %v", v, err)
	}
	if srv.Stats().BadFrames == 0 {
		t.Error("server counted no bad frames")
	}
}

// crashAfterBegin is a deployment whose primary dies the instant an armed
// Begin has opened its transaction: the crash a racing CrashPrimary lands
// between a PUT's Begin and its first write, made deterministic.
type crashAfterBegin struct {
	*repro.Cluster
	armed atomic.Bool
}

func (d *crashAfterBegin) Begin() (repro.Tx, error) {
	tx, err := d.Cluster.Begin()
	if err == nil && d.armed.CompareAndSwap(true, false) {
		err = d.CrashPrimary()
	}
	return tx, err
}

// TestServerPutRacingCrash: a PUT whose transaction the crash orphans
// before its first write is answered StatusRetry — the failure is the
// retryable "failing over" one, not a terminal StatusErr.
func TestServerPutRacingCrash(t *testing.T) {
	c, err := repro.New(repro.Config{Version: repro.V3InlineLog, Backup: repro.ActiveBackup, Backups: 1, DBSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	db := &crashAfterBegin{Cluster: c}
	store, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	db.armed.Store(true)
	if _, err := conn.Write(kvwire.AppendPut(nil, []byte("k"), []byte("v"))); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := kvwire.ReadFrame(conn, nil, kvwire.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != kvwire.StatusRetry {
		t.Fatalf("PUT racing the crash answered status %d %q, want StatusRetry", resp[0], resp[1:])
	}
	if got := srv.Stats().Retries; got != 1 {
		t.Fatalf("server counted %d retries, want 1", got)
	}
}

// TestServerScanAndTxn exercises the remaining opcodes through the real
// client: a multi-key transaction lands atomically and Scan pages the
// keyspace back.
func TestServerScanAndTxn(t *testing.T) {
	srv, _, addr := serve(t, repro.Config{Backups: 1})
	defer srv.Close()
	cl := kvclient.Dial(addr, kvclient.Options{Conns: 1})
	defer cl.Close()

	ops := make([]kvclient.Op, 20)
	for i := range ops {
		ops[i] = kvclient.Op{Key: []byte(fmt.Sprintf("t%03d", i)), Val: []byte(fmt.Sprintf("v%03d", i))}
	}
	if err := cl.Txn(ops); err != nil {
		t.Fatalf("txn: %v", err)
	}
	entries, err := cl.Scan(nil, 100)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(entries) != 20 {
		t.Fatalf("scan returned %d entries, want 20", len(entries))
	}
	// Delete half through a txn, confirm.
	del := make([]kvclient.Op, 10)
	for i := range del {
		del[i] = kvclient.Op{Key: []byte(fmt.Sprintf("t%03d", i)), Delete: true}
	}
	if err := cl.Txn(del); err != nil {
		t.Fatalf("delete txn: %v", err)
	}
	if _, err := cl.Get([]byte("t000")); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("deleted key Get = %v, want ErrNotFound", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Keys != 10 {
		t.Fatalf("stats.Keys = %d, want 10", st.Keys)
	}
}

// TestServerShardedStats: a server fronting a sharded deployment reports
// the shard count and placement epoch over the wire, and an elastic grow
// + rebalance underneath advances the epoch without losing served keys.
func TestServerShardedStats(t *testing.T) {
	db, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  4 << 20,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	cl := kvclient.Dial(l.Addr().String(), kvclient.Options{Conns: 1})
	defer cl.Close()

	for i := 0; i < 50; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.PlacementEpoch != 1 {
		t.Fatalf("stats = shards %d epoch %d, want 2/1", st.Shards, st.PlacementEpoch)
	}

	if _, err := db.AddShards(2); err != nil {
		t.Fatal(err)
	}
	if err := db.Rebalance(); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 {
		t.Fatalf("stats.Shards = %d after grow, want 4", st.Shards)
	}
	if st.PlacementEpoch < 2 {
		t.Fatalf("stats.PlacementEpoch = %d after rebalance, want > 1", st.PlacementEpoch)
	}
	for i := 0; i < 50; i++ {
		v, err := cl.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("key %d after rebalance: %q, %v", i, v, err)
		}
	}
}

// TestRetryIsAnInvitationToAHealedStore: the reader that answers
// StatusRetry has healed the store before the answer is on the wire, so the
// same frame sent again with no pause lands — with an autopilot (the
// promotion happens inside Reopen's admission probe) and without one (the
// heal calls Failover itself). The database is the benchmark's size: its
// Reopen is tens of milliseconds, which a resend would beat if anything
// healed in the background.
func TestRetryIsAnInvitationToAHealedStore(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 4
	}
	frame := kvwire.AppendPut(nil, []byte("k"), []byte("v"))
	for name, autopilot := range map[string]bool{"autopilot": true, "manual": false} {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				cfg := quorumAutopilot(repro.Config{DBSize: 32 << 20})
				if !autopilot {
					cfg.Autopilot = repro.AutopilotConfig{}
				}
				db := &crashAfterBegin{Cluster: mustCluster(t, cfg)}
				srv, _, conn := serveDB(t, db, kv.Options{}, Config{})
				db.armed.Store(true)
				for _, want := range []byte{kvwire.StatusRetry, kvwire.StatusOK} {
					if _, err := conn.Write(frame); err != nil {
						t.Fatal(err)
					}
					st, bodies := readResponses(t, conn, 1)
					if st[0] != want {
						t.Fatalf("round %d: PUT answered status %d %q, want %d", round, st[0], bodies[0], want)
					}
				}
				if got := srv.Stats().Reopens; got != 1 {
					t.Fatalf("round %d: %d reopens, want 1", round, got)
				}
				srv.Close()
			}
		})
	}
}

// TestHealThatCannotSucceed: the one backup died before the primary, so no
// heal can succeed. Every request is answered StatusRetry on the spot,
// nothing is reopened, nothing polls in the background — the goroutines are
// the accept loop and the connection's one, as before the crash — and a
// drain has nothing to wait for.
func TestHealThatCannotSucceed(t *testing.T) {
	idle := runtime.NumGoroutine()
	c := mustCluster(t, repro.Config{Version: repro.V3InlineLog, Backup: repro.ActiveBackup, Backups: 1, DBSize: 4 << 20})
	srv, _, conn := serveDB(t, c, kv.Options{}, Config{})
	put, get := kvwire.AppendPut(nil, []byte("k"), []byte("v")), kvwire.AppendGet(nil, []byte("k"))
	if _, err := conn.Write(put); err != nil {
		t.Fatal(err)
	}
	st, _ := readResponses(t, conn, 1)
	wantStatuses(t, st, kvwire.StatusOK)
	if n := runtime.NumGoroutine(); n > idle+2 {
		t.Fatalf("%d goroutines serve one connection, want the accept loop and one", n-idle)
	}

	if err := c.CrashBackup(0); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		frame := put
		if i%2 == 1 {
			frame = get
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		st, _ := readResponses(t, conn, 1)
		wantStatuses(t, st, kvwire.StatusRetry)
	}
	if got := srv.Stats(); got.Reopens != 0 || got.Retries != 50 {
		t.Fatalf("%d reopens and %d retries, want 0 and 50", got.Reopens, got.Retries)
	}
	if n := runtime.NumGoroutine(); n > idle+2 {
		t.Fatalf("%d goroutines after fifty failed heals, want the accept loop and one for the connection", n-idle)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestOneGoroutinePerConnection: a connection costs the server one
// goroutine, its reader, which writes its own answers, and the goroutine
// goes when the peer hangs up.
func TestOneGoroutinePerConnection(t *testing.T) {
	srv, _, addr := serve(t, repro.Config{Backups: 1})
	defer srv.Close()
	// settle waits up to 5 s for the goroutine count to reach want — or,
	// want < 0, to hold still for 100 ms — and returns the last count it
	// saw. The tests before this one may still be winding down.
	settle := func(want int) int {
		n, still := runtime.NumGoroutine(), 0
		for deadline := time.Now().Add(5 * time.Second); n != want && still < 100 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			if m := runtime.NumGoroutine(); m != n {
				n, still = m, 0
			} else if want < 0 {
				still++
			}
		}
		return n
	}
	base := settle(-1)
	const conns = 8
	var cs []net.Conn
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(20 * time.Second))
		// An answered PUT: the server runs everything it ever will for c.
		if _, err := c.Write(kvwire.AppendPut(nil, bkey(i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
		st, _ := readResponses(t, c, 1)
		wantStatuses(t, st, kvwire.StatusOK)
		cs = append(cs, c)
	}
	if n := settle(base + conns); n != base+conns {
		t.Fatalf("%d connections run %d goroutines, want %d", conns, n-base, conns)
	}
	for _, c := range cs {
		c.Close()
	}
	if n := settle(base); n != base {
		t.Fatalf("%d goroutines outlive their closed connections", n-base)
	}
}

// failingListener hands out connections whose every Write after the first
// fails; failed closes at the first refusal.
type failingListener struct {
	net.Listener
	failed chan struct{}
	once   sync.Once
}

func (l *failingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &failingConn{Conn: c, l: l}, nil
}

type failingConn struct {
	net.Conn
	l      *failingListener
	writes atomic.Int32
}

func (c *failingConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) == 1 {
		return c.Conn.Write(b)
	}
	c.l.once.Do(func() { close(c.l.failed) })
	return 0, errors.New("write refused")
}

// TestWriteFailureEndsTheConnection: once a connection cannot be answered,
// the server closes it and executes nothing more from it — PUTs sent after
// the failed write never reach the store.
func TestWriteFailureEndsTheConnection(t *testing.T) {
	c := mustCluster(t, repro.Config{Version: repro.V3InlineLog, Backup: repro.ActiveBackup, Backups: 1, DBSize: 4 << 20})
	store, err := kv.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{Logf: t.Logf})
	defer srv.Close()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &failingListener{Listener: inner, failed: make(chan struct{})}
	go srv.Serve(l)
	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))

	// The first answer is written; the second is refused.
	if _, err := conn.Write(kvwire.AppendPut(nil, []byte("first"), []byte("v"))); err != nil {
		t.Fatal(err)
	}
	st, _ := readResponses(t, conn, 1)
	wantStatuses(t, st, kvwire.StatusOK)
	if _, err := conn.Write(kvwire.AppendPut(nil, []byte("second"), []byte("v"))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.failed:
	case <-time.After(10 * time.Second):
		t.Fatal("the second PUT was never answered")
	}
	// The server may have closed the connection already: a refused write
	// here is what the test wants.
	conn.Write(putFrames("after", 8))

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("the connection is still open 5 s after a failed write (read: %v)", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := store.Get(bkey(i)); !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("Get(%s) after the failed write = %v, want kv.ErrNotFound", bkey(i), err)
		}
	}
}

// TestHealOnAnyShard: whichever shard's primary dies, with an autopilot or
// without, the first request to meet it is answered StatusRetry by a reader
// that has healed the store — Reopen's admission probe reaches every shard
// that holds a region, and a manual heal offers every shard its failover —
// so that one answer is the only retry: every later PUT lands and all 64
// keys read back their last value.
func TestHealOnAnyShard(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, autopilot := range []bool{true, false} {
			for victim := 0; victim < shards; victim++ {
				t.Run(fmt.Sprintf("shards=%d/autopilot=%v/victim=%d", shards, autopilot, victim), func(t *testing.T) {
					cfg := quorumAutopilot(repro.Config{})
					if !autopilot {
						cfg.Autopilot = repro.AutopilotConfig{}
					}
					db, err := repro.NewSharded(cfg, shards)
					if err != nil {
						t.Fatal(err)
					}
					srv, _, conn := serveDB(t, db, kv.Options{}, Config{})
					defer srv.Close()
					ask := func(frame []byte) (byte, []byte) {
						if _, err := conn.Write(frame); err != nil {
							t.Fatal(err)
						}
						st, bodies := readResponses(t, conn, 1)
						return st[0], bodies[0]
					}
					for i := 0; i < 64; i++ {
						if st, body := ask(kvwire.AppendPut(nil, bkey(i), bval("seed", i))); st != kvwire.StatusOK {
							t.Fatalf("seeding key %d: status %d %q", i, st, body)
						}
					}
					if err := db.Shard(victim).CrashPrimary(); err != nil {
						t.Fatal(err)
					}
					retries := 0
					for round := 0; round < 5; round++ {
						for i := 0; i < 64; i++ {
							frame := kvwire.AppendPut(nil, bkey(i), bval(fmt.Sprintf("r%d-", round), i))
							st, body := ask(frame)
							if st == kvwire.StatusRetry {
								retries++
								st, body = ask(frame)
							}
							if st != kvwire.StatusOK {
								t.Fatalf("round %d key %d: status %d %q", round, i, st, body)
							}
						}
					}
					if got := srv.Stats().Reopens; retries != 1 || got != 1 {
						t.Fatalf("%d retries and %d reopens, want one of each", retries, got)
					}
					for i := 0; i < 64; i++ {
						st, body := ask(kvwire.AppendGet(nil, bkey(i)))
						if want := bval("r4-", i); st != kvwire.StatusOK || !bytes.Equal(body, want) {
							t.Fatalf("key %d reads status %d %q, want %q", i, st, body, want)
						}
					}
				})
			}
		}
	}
}
