package kvserver

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro"
	"repro/internal/kvwire"
	"repro/internal/obs"
	"repro/kv"
	"repro/kvclient"
)

// queued reports how many readers wait for the running group's leader.
func queued(s *Server) int {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	return len(s.queue)
}

// dialServer opens one more raw connection to the listener conn is on.
func dialServer(t *testing.T, conn net.Conn) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(20 * time.Second))
	return c
}

// groupOfTwo parks connection a's leader at its first Begin, holding the
// store, sends b's frames and waits until b's reader has queued behind it:
// released, the leader runs both bursts under one seal.
func groupOfTwo(t *testing.T, srv *Server, db *gateBegin, a, b net.Conn, aFrames, bFrames []byte) {
	t.Helper()
	db.parkAt.Store(1)
	if _, err := a.Write(aFrames); err != nil {
		t.Fatal(err)
	}
	<-db.parked
	if _, err := b.Write(bFrames); err != nil {
		t.Fatal(err)
	}
	for queued(srv) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupTwoConnsOneSeal: two connections' pipelined PUTs that meet in
// one group are one transaction under one seal.
func TestGroupTwoConnsOneSeal(t *testing.T) {
	const n = 8
	db := newGateBegin(t)
	reg := obs.NewRegistry()
	srv, _, a := serveDB(t, db, kv.Options{}, Config{Obs: reg})
	defer srv.Close()
	b := dialServer(t, a)

	b0, t0 := commitCounters(db)
	groupOfTwo(t, srv, db, a, b, putFrames("a", n), putFrames("b", n))
	close(db.release)
	for _, c := range []net.Conn{a, b} {
		st, _ := readResponses(t, c, n)
		wantStatuses(t, st, repeat(kvwire.StatusOK, n)...)
	}
	if b1, t1 := commitCounters(db); b1-b0 != 1 || t1-t0 != 1 {
		t.Fatalf("two connections' %d PUTs sealed %d batches for %d transactions, want 1 for 1", n, b1-b0, t1-t0)
	}
	snap := reg.Snapshot()
	if fr, cn := snap.Hist(MetricBurstFrames), snap.Hist(MetricBurstConns); fr.Count != 1 || fr.Sum != 2*n || cn.Sum != 2 {
		t.Fatalf("%d seals answered %d frames from %d connections, want 1 seal of %d frames from 2", fr.Count, fr.Sum, cn.Sum, 2*n)
	}
}

// TestGroupCrashInTheGap: the primary dies after connection a's four PUTs
// and the first of b's have been written in the group's one transaction,
// before its seal. The five writes died with it, so every response of both
// connections is StatusRetry — b's own failures and every answer the failed
// seal covered — one heal reopened the store, and every key reads what it
// held before.
func TestGroupCrashInTheGap(t *testing.T) {
	const n = 4
	db := newGateBegin(t)
	srv, store, a := serveDB(t, db, kv.Options{}, Config{})
	defer srv.Close()
	b := dialServer(t, a)
	for i := 0; i < 2*n; i++ {
		if err := store.Put(bkey(i), bval("old", i)); err != nil {
			t.Fatal(err)
		}
	}
	var bFrames []byte
	for i := n; i < 2*n; i++ {
		bFrames = append(bFrames, kvwire.AppendPut(nil, bkey(i), bval("new", i))...)
	}

	groupOfTwo(t, srv, db, a, b, putFrames("new", n), bFrames)
	db.crashAt.Store(n + 2) // one range per PUT: a's n, b's first, then b's second dies
	close(db.release)
	for _, c := range []net.Conn{a, b} {
		st, _ := readResponses(t, c, n)
		wantStatuses(t, st, repeat(kvwire.StatusRetry, n)...)
	}
	if got := srv.Stats().Reopens; got != 1 {
		t.Fatalf("%d reopens, want the leader's one", got)
	}
	for i := 0; i < 2*n; i++ {
		if got, err := store.Get(bkey(i)); err != nil || !bytes.Equal(got, bval("old", i)) {
			t.Errorf("key %d reads %q, %v after the failed seal; want %q", i, got, err, bval("old", i))
		}
	}
}

// TestGroupGetWaitsForTheSeal: connection b's GET of a key connection a's
// group is writing is not answered while the seal is pending, and once it
// is, reads a's value.
func TestGroupGetWaitsForTheSeal(t *testing.T) {
	db := newGateBegin(t)
	srv, store, a := serveDB(t, db, kv.Options{}, Config{})
	defer srv.Close()
	b := dialServer(t, a)
	if err := store.Put(bkey(0), []byte("old")); err != nil {
		t.Fatal(err)
	}

	// a's leader parks at its transaction's Begin, holding the store.
	db.parkAt.Store(1)
	aFrames := kvwire.AppendPut(nil, bkey(0), []byte("new"))
	aFrames = append(aFrames, kvwire.AppendPut(nil, bkey(1), []byte("other"))...)
	if _, err := a.Write(aFrames); err != nil {
		t.Fatal(err)
	}
	<-db.parked
	if _, err := b.Write(kvwire.AppendGet(nil, bkey(0))); err != nil {
		t.Fatal(err)
	}
	for queued(srv) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var nerr net.Error
	if resp, err := kvwire.ReadFrame(b, nil, kvwire.MaxFrame); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("GET of an unsealed write answered %q, %v before the seal", resp, err)
	}
	b.SetReadDeadline(time.Now().Add(20 * time.Second))
	close(db.release)
	st, _ := readResponses(t, a, 2)
	wantStatuses(t, st, kvwire.StatusOK, kvwire.StatusOK)
	st, bodies := readResponses(t, b, 1)
	if st[0] != kvwire.StatusOK || string(bodies[0]) != "new" {
		t.Fatalf("GET after the seal answered status %d %q, want %q", st[0], bodies[0], "new")
	}
}

// TestGroupSlowPeerStallsNoOne is TestBurstUnreadPeerFreesTheStore with a
// second connection: while the first one's peer reads nothing and its
// reader sits blocked in its write, the second is served round trip after
// round trip — a reader writes its answers only after it has handed the
// lead on.
func TestGroupSlowPeerStallsNoOne(t *testing.T) {
	srv, _, stalled, big := stallPeer(t)
	other := servePipe(t, srv)
	for i := 0; i < 20; i++ {
		frames := kvwire.AppendPut(nil, []byte("other"), bval("v", i))
		frames = append(frames, kvwire.AppendGet(nil, []byte("other"))...)
		if _, err := other.Write(frames); err != nil {
			t.Fatal(err)
		}
		st, bodies := readResponses(t, other, 2)
		wantStatuses(t, st, kvwire.StatusOK, kvwire.StatusOK)
		if !bytes.Equal(bodies[1], bval("v", i)) {
			t.Fatalf("round trip %d read %q, want %q", i, bodies[1], bval("v", i))
		}
	}
	readStalled(t, stalled, big)
}

// TestClientRoundTripZeroAllocs: with kvclient and the server in one
// process, a PUT round trip allocates nothing on either side of the socket
// and a GET only the fresh value it returns.
func TestClientRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	srv, _, addr := serve(t, repro.Config{Backups: 1})
	defer srv.Close()
	cl := kvclient.Dial(addr, kvclient.Options{Conns: 1})
	defer cl.Close()
	key, val := []byte("key"), bytes.Repeat([]byte{7}, 64)
	put := func() {
		if err := cl.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if got, err := cl.Get(key); err != nil || !bytes.Equal(got, val) {
			t.Fatalf("Get = %q, %v", got, err)
		}
	}
	// Warm the waiter pool, the frame pools and the connection's buffers.
	for range 1000 {
		put()
		get()
	}
	if n := testing.AllocsPerRun(2000, put); n != 0 {
		t.Errorf("PUT round trip: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, get); n != 1 {
		t.Errorf("GET round trip: %v allocations, want 1 (the value)", n)
	}
}
