package kvserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/kvwire"
	"repro/internal/obs"
	"repro/kv"
	"repro/kvclient"
)

// quorumAutopilot is the benchmark's served deployment at test size.
func quorumAutopilot(cfg repro.Config) repro.Config {
	cfg.Version = repro.V3InlineLog
	cfg.Backup = repro.ActiveBackup
	cfg.Backups = 3
	cfg.Safety = repro.QuorumSafe
	cfg.Metrics = true
	if cfg.DBSize == 0 {
		cfg.DBSize = 4 << 20
	}
	cfg.Autopilot = repro.AutopilotConfig{HeartbeatPeriod: 200 * time.Microsecond, AutoFailover: true}
	return cfg
}

// serveDB serves db — a deployment or a fault-injecting wrapper of one —
// and returns the server (the caller closes it), its store, and a raw
// connection to it.
func serveDB(t *testing.T, db repro.DB, opt kv.Options, cfg Config) (*Server, *kv.Store, net.Conn) {
	t.Helper()
	store, err := kv.OpenWith(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logf = t.Logf
	srv := New(store, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	return srv, store, conn
}

func mustCluster(t *testing.T, cfg repro.Config) *repro.Cluster {
	t.Helper()
	c, err := repro.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func bkey(i int) []byte { return []byte(fmt.Sprintf("key%03d", i)) }
func bval(tag string, i int) []byte {
	return []byte(fmt.Sprintf("%s%03d", tag, i))
}

// putFrames returns PUT frames for keys [0, n) with values <tag><i>, back
// to back (kvwire's Append functions each build one frame from buf[:0]).
func putFrames(tag string, n int) []byte {
	var frames []byte
	for i := 0; i < n; i++ {
		frames = append(frames, kvwire.AppendPut(nil, bkey(i), bval(tag, i))...)
	}
	return frames
}

// readResponses reads n response frames and returns their status bytes
// and bodies.
func readResponses(t *testing.T, c net.Conn, n int) (status []byte, bodies [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := kvwire.ReadFrame(c, nil, kvwire.MaxFrame)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, n, err)
		}
		status = append(status, resp[0])
		bodies = append(bodies, resp[1:])
	}
	return status, bodies
}

func wantStatuses(t *testing.T, got []byte, want ...byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("response statuses %v, want %v", got, want)
	}
}

func repeat(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func commitCounters(db repro.DB) (batches, txns uint64) {
	m := db.Metrics()
	return m.Counter("repl.commit.batches"), m.Counter("repl.commit.txns")
}

// TestBurstSealsOnce is the tier-1 guard of the served path's group
// commit: eight PUT frames arriving in one write are one transaction under
// one seal, and a GET pipelined behind a PUT of its key reads that PUT's
// value.
func TestBurstSealsOnce(t *testing.T) {
	db := mustCluster(t, quorumAutopilot(repro.Config{}))
	reg := obs.NewRegistry()
	srv, _, conn := serveDB(t, db, kv.Options{}, Config{Obs: reg})
	defer srv.Close()

	b0, t0 := commitCounters(db)
	if _, err := conn.Write(putFrames("a", 8)); err != nil {
		t.Fatal(err)
	}
	st, _ := readResponses(t, conn, 8)
	wantStatuses(t, st, repeat(kvwire.StatusOK, 8)...)
	if b1, t1 := commitCounters(db); b1-b0 != 1 || t1-t0 != 1 {
		t.Fatalf("eight pipelined PUTs sealed %d batches for %d transactions, want 1 for 1", b1-b0, t1-t0)
	}

	frames := kvwire.AppendPut(nil, bkey(3), []byte("fresh"))
	frames = append(frames, kvwire.AppendGet(nil, bkey(3))...)
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	st, bodies := readResponses(t, conn, 2)
	wantStatuses(t, st, kvwire.StatusOK, kvwire.StatusOK)
	if string(bodies[1]) != "fresh" {
		t.Fatalf("GET pipelined behind its PUT read %q, want %q", bodies[1], "fresh")
	}

	// The scrape explains the occupancy: two bursts, of 8 and 2 frames
	// with 8 and 1 mutations.
	snap := reg.Snapshot()
	fr, mu := snap.Hist(MetricBurstFrames), snap.Hist(MetricBurstMutations)
	if fr.Count != 2 || fr.Sum != 10 || mu.Count != 2 || mu.Sum != 9 {
		t.Fatalf("burst histograms: %d bursts of %d frames, %d of %d mutations; want 2 of 10 and 2 of 9",
			fr.Count, fr.Sum, mu.Count, mu.Sum)
	}
}

// TestBurstMalformedFrame: a frame the server must refuse, arriving
// behind two good PUTs in the same write, does not cost them their
// answers — the burst before it is sealed and delivered, then comes
// StatusBad, then the close.
func TestBurstMalformedFrame(t *testing.T) {
	for name, garbage := range map[string][]byte{
		"unknown-opcode": kvwire.AppendEmpty(nil, 0x7f),
		"huge-length":    {0xff, 0xff, 0xff, 0xff, 1, 2, 3},
	} {
		t.Run(name, func(t *testing.T) {
			db := mustCluster(t, quorumAutopilot(repro.Config{}))
			srv, store, conn := serveDB(t, db, kv.Options{}, Config{})
			defer srv.Close()
			b0, t0 := commitCounters(db)
			frames := append(putFrames("a", 2), garbage...)
			frames = append(frames, kvwire.AppendPut(nil, bkey(9), []byte("after the garbage"))...)
			if _, err := conn.Write(frames); err != nil {
				t.Fatal(err)
			}
			st, _ := readResponses(t, conn, 3)
			wantStatuses(t, st, kvwire.StatusOK, kvwire.StatusOK, kvwire.StatusBad)
			if _, err := kvwire.ReadFrame(conn, nil, kvwire.MaxFrame); err == nil {
				t.Fatal("connection still serving after StatusBad")
			}
			if b1, t1 := commitCounters(db); b1-b0 != 1 || t1-t0 != 1 {
				t.Fatalf("%d batches for %d transactions, want 1 for 1 holding the 2 PUTs before the garbage", b1-b0, t1-t0)
			}
			if _, err := store.Get(bkey(9)); err == nil {
				t.Fatal("the PUT behind the malformed frame was executed")
			}
			if got := srv.Stats().BadFrames; got != 1 {
				t.Fatalf("%d bad frames counted, want 1", got)
			}
		})
	}
}

// gateBegin is a deployment whose transactions count down to two events.
// At the parkAt-th Begin it stops and waits: the test learns that a group
// is under way — its leader holding the store — does what it came to do,
// and lets it continue. Just before the crashAt-th step of its
// transactions — a declared range or a commit — the primary of shard
// crashShard dies: inside a group, whose mutations share one transaction,
// that is a crash while the transaction is open. A countdown left at 0
// never fires.
type gateBegin struct {
	*repro.Cluster
	parkAt, crashAt atomic.Int32
	crashShard      int
	parked, release chan struct{}
}

func newGateBegin(t *testing.T) *gateBegin {
	return &gateBegin{
		Cluster: mustCluster(t, quorumAutopilot(repro.Config{})),
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (d *gateBegin) Begin() (repro.Tx, error) {
	if d.parkAt.Add(-1) == 0 {
		close(d.parked)
		<-d.release
	}
	tx, err := d.Cluster.Begin()
	if err != nil {
		return nil, err
	}
	return gatedTx{Tx: tx, d: d}, nil
}

// gatedTx is a gateBegin transaction: its steps count crashAt down.
type gatedTx struct {
	repro.Tx
	d *gateBegin
}

func (t gatedTx) step() {
	if t.d.crashAt.Add(-1) == 0 {
		t.d.Shard(t.d.crashShard).CrashPrimary()
	}
}

func (t gatedTx) SetRange(off, n int) error {
	t.step()
	return t.Tx.SetRange(off, n)
}

func (t gatedTx) Commit() error {
	t.step()
	return t.Tx.Commit()
}

// TestBurstShutdownMidBurst: a drain that starts while a burst runs does
// not drop the requests the reader had already taken off the socket —
// each is executed, sealed and answered before the connection closes.
func TestBurstShutdownMidBurst(t *testing.T) {
	db := newGateBegin(t)
	srv, _, conn := serveDB(t, db, kv.Options{}, Config{})
	db.parkAt.Store(1)
	if _, err := conn.Write(putFrames("a", 8)); err != nil {
		t.Fatal(err)
	}
	<-db.parked // the first PUT of the burst is at its Begin
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	for !srv.draining.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	close(db.release)
	st, _ := readResponses(t, conn, 8)
	wantStatuses(t, st, repeat(kvwire.StatusOK, 8)...)
	if _, err := kvwire.ReadFrame(conn, nil, kvwire.MaxFrame); err != io.EOF {
		t.Fatalf("read after the drain = %v, want EOF", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBurstHeldOnlyWhileASealIsPending: requests are served ahead of their
// answers only while that lets them share a mutation's seal. GETs ahead of
// a burst's first mutation are answered as served, and so is everything on
// a multi-shard store: its PUTs defer as well, but a GET staged behind one
// finds that shard's backups behind the primary and reads the primary, so
// its reader stages nothing (see sealPending).
func TestBurstHeldOnlyWhileASealIsPending(t *testing.T) {
	frames := kvwire.AppendGet(nil, bkey(0))
	frames = append(frames, kvwire.AppendGet(nil, bkey(1))...)
	frames = append(frames, kvwire.AppendPut(nil, bkey(0), []byte("fresh"))...)
	frames = append(frames, kvwire.AppendGet(nil, bkey(0))...)
	for name, tc := range map[string]struct {
		shards     int
		wantBursts uint64 // seals that answered the four frames
	}{
		"one-shard":  {1, 3}, // GET, GET, then PUT+GET under one seal
		"two-shards": {2, 4},
	} {
		t.Run(name, func(t *testing.T) {
			db, err := repro.NewSharded(quorumAutopilot(repro.Config{}), tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			srv, store, conn := serveDB(t, db, kv.Options{}, Config{Obs: reg})
			defer srv.Close()
			for i := 0; i < 2; i++ {
				if err := store.Put(bkey(i), bval("old", i)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := conn.Write(frames); err != nil {
				t.Fatal(err)
			}
			st, bodies := readResponses(t, conn, 4)
			wantStatuses(t, st, repeat(kvwire.StatusOK, 4)...)
			if string(bodies[0]) != "old000" || string(bodies[3]) != "fresh" {
				t.Fatalf("GETs around the PUT read %q and %q, want old000 and fresh", bodies[0], bodies[3])
			}
			if fr := reg.Snapshot().Hist(MetricBurstFrames); fr.Count != tc.wantBursts || fr.Sum != 4 {
				t.Fatalf("%d seals answered %d frames, want %d for 4", fr.Count, fr.Sum, tc.wantBursts)
			}
		})
	}
}

// TestBurstUnreadPeerFreesTheStore: sixteen buffered requests — PUTs that
// keep a burst going, GETs with large answers — from a peer that is not
// reading. The reader ends up blocked writing the burst's answers — and
// must have let go of the store first: the healer's Reopen and every other
// connection need it.
func TestBurstUnreadPeerFreesTheStore(t *testing.T) {
	_, store, client, big := stallPeer(t)
	// Nobody reads the responses yet. The store must come free anyway.
	got := make(chan error, 1)
	go func() {
		_, err := store.Get(bkey(0))
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the store is still held while the reader waits to write its answers")
	}
	readStalled(t, client, big)
}

// stallPeer serves a store and sends one connection sixteen requests,
// one burst, whose answers outgrow the connection's 16 KiB write buffer;
// nobody reads them. It returns the server, the store, the connection's
// client end and the value the GETs among them read.
func stallPeer(t *testing.T) (*Server, *kv.Store, net.Conn, []byte) {
	db := mustCluster(t, quorumAutopilot(repro.Config{}))
	store, err := kv.OpenWith(db, kv.Options{SlotSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Eight of these outgrow the write buffer.
	big := bytes.Repeat([]byte{'v'}, 3900)
	for i := 0; i < 8; i++ {
		if err := store.Put(bkey(i), big); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(store, Config{Logf: t.Logf})
	t.Cleanup(func() { srv.Close() })
	client := servePipe(t, srv)
	var frames []byte
	for i := 0; i < 8; i++ {
		frames = append(frames, kvwire.AppendPut(nil, []byte("small"), []byte{byte(i)})...)
		frames = append(frames, kvwire.AppendGet(nil, bkey(i))...)
	}
	go client.Write(frames) // returns once the server's one read took them
	return srv, store, client, big
}

// readStalled reads stallPeer's sixteen answers.
func readStalled(t *testing.T, client net.Conn, big []byte) {
	t.Helper()
	st, bodies := readResponses(t, client, 16)
	wantStatuses(t, st, repeat(kvwire.StatusOK, 16)...)
	for i := 1; i < 16; i += 2 {
		if !bytes.Equal(bodies[i], big) {
			t.Fatalf("response %d carries %d bytes, want the %d-byte value", i, len(bodies[i]), len(big))
		}
	}
}

// servePipe serves one end of a synchronous pipe and returns the other:
// nothing is buffered between the server and the test, so an unread
// response blocks the connection's write for certain.
func servePipe(t *testing.T, srv *Server) net.Conn {
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	srv.mu.Lock()
	srv.conns[server] = struct{}{}
	srv.connWg.Add(1)
	srv.mu.Unlock()
	go srv.handleConn(server)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	return client
}

// TestBurstCrashInTheGap is the invariant over TCP: a primary dies while a
// group's transaction is open, after some of its PUTs have been written
// and before the seal. Those writes died with it — so not one request of
// the group may be answered StatusOK, whichever side of the crash it ran
// on, or whichever shard it landed on. The client's retry lands all of
// them once the healer has reopened the store on the promoted survivor,
// and every key then reads right.
func TestBurstCrashInTheGap(t *testing.T) {
	// One shard: one connection's burst of eight PUTs, the crash after two.
	t.Run("one-shard", func(t *testing.T) {
		db := newGateBegin(t)
		srv, store, conn := serveDB(t, db, kv.Options{}, Config{})
		defer srv.Close()
		const keys = 20
		for i := 0; i < keys; i++ {
			if err := store.Put(bkey(i), bval("old", i)); err != nil {
				t.Fatal(err)
			}
		}

		db.crashAt.Store(3) // between the burst's second PUT and its third, each one range
		if _, err := conn.Write(putFrames("new", 8)); err != nil {
			t.Fatal(err)
		}
		st, _ := readResponses(t, conn, 8)
		wantStatuses(t, st, repeat(kvwire.StatusRetry, 8)...)

		// What a client does with StatusRetry: send it again until it lands.
		cl := kvclient.Dial(conn.RemoteAddr().String(), kvclient.Options{Conns: 1, RetryBudget: 20 * time.Second})
		defer cl.Close()
		for i := 0; i < 8; i++ {
			if err := cl.Put(bkey(i), bval("new", i)); err != nil {
				t.Fatalf("retried put %d: %v", i, err)
			}
		}
		// The healer counts its Reopen just after the store serves again.
		for deadline := time.Now().Add(5 * time.Second); srv.Stats().Reopens == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the store was never reopened")
			}
		}
		for i := 0; i < keys; i++ {
			want := bval("old", i)
			if i < 8 {
				want = bval("new", i)
			}
			if got, err := cl.Get(bkey(i)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("key %d reads %q, %v; want %q", i, got, err, want)
			}
		}
	})

	// Four shards: a reader there answers each request as its own burst
	// (see sealPending), so the group is three connections' requests, parked
	// behind the first at its Begin: a PUT on shard 0, a client's DELETE on
	// shard 1 and a PUT on shard 2, in one transaction. Shard 2's primary
	// dies just before it commits. It commits shard by shard: shards 0 and 1
	// ship, shard 2 fails, and the group's answers are all StatusRetry. The
	// DELETE did apply, so its retry finds the key gone: the client reports
	// the retried DELETE done, not ErrNotFound.
	t.Run("four-shards", func(t *testing.T) {
		c, err := repro.NewSharded(quorumAutopilot(repro.Config{}), 4)
		if err != nil {
			t.Fatal(err)
		}
		db := &gateBegin{Cluster: c, parked: make(chan struct{}), release: make(chan struct{})}
		srv, store, a := serveDB(t, db, kv.Options{}, Config{})
		defer srv.Close()
		const keys = 20
		shard := make([]int, keys) // the shard each key's PUT committed on
		for i := 0; i < keys; i++ {
			before := shardCommits(c)
			if err := store.Put(bkey(i), bval("old", i)); err != nil {
				t.Fatal(err)
			}
			after := shardCommits(c)
			for sh := range after {
				if after[sh] != before[sh] {
					shard[i] = sh
				}
			}
		}
		// The first key on each of shards 0, 1 and 2, in that order.
		group := []int{-1, -1, -1}
		for i := keys - 1; i >= 0; i-- {
			if shard[i] < len(group) {
				group[shard[i]] = i
			}
		}
		if slices.Contains(group, -1) {
			t.Fatalf("keys by shard %v: the test needs one on each of shards 0, 1 and 2", shard)
		}
		put := func(conn net.Conn, i int) {
			if _, err := conn.Write(kvwire.AppendPut(nil, bkey(i), bval("new", i))); err != nil {
				t.Fatal(err)
			}
		}
		db.parkAt.Store(1)
		put(a, group[0])
		<-db.parked
		dc := kvclient.Dial(a.RemoteAddr().String(), kvclient.Options{Conns: 1, RetryBudget: 20 * time.Second})
		defer dc.Close()
		deleted := make(chan error, 1)
		go func() { deleted <- dc.Delete(bkey(group[1])) }()
		for queued(srv) < 1 {
			time.Sleep(100 * time.Microsecond)
		}
		last := dialServer(t, a)
		put(last, group[2])
		for queued(srv) < 2 {
			time.Sleep(100 * time.Microsecond)
		}
		db.crashShard = 2
		db.crashAt.Store(4) // three ranges, then the commit meets the crash
		close(db.release)
		for _, conn := range []net.Conn{a, last} {
			st, _ := readResponses(t, conn, 1)
			wantStatuses(t, st, kvwire.StatusRetry)
		}
		if err := <-deleted; err != nil {
			t.Fatalf("delete of key %d, answered StatusRetry after it applied: %v", group[1], err)
		}
		if got := dc.Retries(); got == 0 {
			t.Fatal("the delete was never retried: its group was not answered StatusRetry")
		}
		if got := srv.Stats().Reopens; got != 1 {
			t.Fatalf("%d reopens, want the leader's one", got)
		}

		cl := kvclient.Dial(a.RemoteAddr().String(), kvclient.Options{Conns: 1, RetryBudget: 20 * time.Second})
		defer cl.Close()
		retried := map[int]bool{}
		for _, i := range []int{group[0], group[2]} {
			retried[i] = true
			if err := cl.Put(bkey(i), bval("new", i)); err != nil {
				t.Fatalf("retried put of key %d: %v", i, err)
			}
		}
		for i := 0; i < keys; i++ {
			want := bval("old", i)
			if retried[i] {
				want = bval("new", i)
			}
			got, err := cl.Get(bkey(i))
			if i == group[1] {
				if !errors.Is(err, kvclient.ErrNotFound) {
					t.Errorf("deleted key %d reads %q, %v; want ErrNotFound", i, got, err)
				}
			} else if err != nil || !bytes.Equal(got, want) {
				t.Errorf("key %d reads %q, %v; want %q", i, got, err, want)
			}
		}
		if err := cl.Delete(bkey(group[1])); !errors.Is(err, kvclient.ErrNotFound) {
			t.Fatalf("a first DELETE of the absent key %d = %v, want ErrNotFound", group[1], err)
		}
	})
}

// shardCommits returns each shard's committed-transaction count.
func shardCommits(c *repro.Cluster) []uint64 {
	n := make([]uint64, c.Shards())
	for i := range n {
		n[i] = c.Shard(i).Committed()
	}
	return n
}

// TestServedCommitBatchNeverAcksFromOpenBatch: a deployment built with
// Config.CommitBatch and served over the wire. The server used to answer
// each PUT at its Commit — from an open batch — so up to CommitBatch-1
// acknowledged writes died with the primary. A burst's seal flushes the
// batch before anything is answered.
func TestServedCommitBatchNeverAcksFromOpenBatch(t *testing.T) {
	cfg := quorumAutopilot(repro.Config{})
	cfg.CommitBatch = 16
	db := mustCluster(t, cfg)
	srv, _, conn := serveDB(t, db, kv.Options{}, Config{})
	defer srv.Close()
	cl := kvclient.Dial(conn.RemoteAddr().String(), kvclient.Options{Conns: 1, RetryBudget: 20 * time.Second})
	defer cl.Close()

	// Twenty acknowledged writes: one full batch of sixteen and four more.
	const acked = 20
	version := make([]uint64, acked)
	stamp := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	for i := 0; i < acked; i++ {
		version[i] = uint64(100 + i)
		if err := cl.Put(bkey(i), stamp(version[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	// The next write rides out the failover on the client's retries.
	if err := cl.Put([]byte("after"), stamp(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < acked; i++ {
		got, err := cl.Get(bkey(i))
		if err != nil || len(got) != 8 || binary.BigEndian.Uint64(got) < version[i] {
			t.Errorf("acknowledged key %d reads %x, %v after the failover; want version %d", i, got, err, version[i])
		}
	}
}

// TestBurstTokenReadYourWrites: a PUT served in a burst is answered with a
// token taken once the transaction holding it has committed, so a
// ReadYourWrites GET on a second connection carrying that token sees the
// PUT. The deployment is 1-safe: the seal's pointer lingers in the
// primary's write buffer, so the backups, caught up to everything before
// the burst, have not applied it, and a token taken before the commit would
// let one of them serve the old value.
func TestBurstTokenReadYourWrites(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := repro.Config{Version: repro.V3InlineLog, Backup: repro.ActiveBackup, Backups: 2, DBSize: 4 << 20}
			c, err := repro.NewSharded(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			srv, store, a := serveDB(t, c, kv.Options{}, Config{})
			defer srv.Close()
			const n = 8
			for i := 0; i < n; i++ {
				if err := store.Put(bkey(i), bval("old", i)); err != nil {
					t.Fatal(err)
				}
			}
			c.Settle()
			if _, err := a.Write(putFrames("new", n)); err != nil {
				t.Fatal(err)
			}
			st, bodies := readResponses(t, a, n)
			wantStatuses(t, st, repeat(kvwire.StatusOK, n)...)
			b := dialServer(t, a)
			for i, body := range bodies {
				tok, err := kvwire.ParseTokenBody(body, nil)
				if err != nil || len(tok) != shards {
					t.Fatalf("PUT %d answered token %v, %v", i, tok, err)
				}
				if _, err := b.Write(kvwire.AppendGetAt(nil, bkey(i), kvwire.ModeRYW, 0, tok)); err != nil {
					t.Fatal(err)
				}
				st, got := readResponses(t, b, 1)
				if st[0] != kvwire.StatusOK || !bytes.Equal(got[0], bval("new", i)) {
					t.Fatalf("ReadYourWrites GET of key %d with its PUT's token %v: status %d %q, want %q", i, tok, st[0], got[0], bval("new", i))
				}
			}
		})
	}
}
