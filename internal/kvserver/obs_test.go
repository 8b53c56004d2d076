package kvserver

import (
	"fmt"
	"net"
	"testing"

	"repro"
	"repro/internal/obs"
	"repro/kv"
	"repro/kvclient"
)

// TestMetricsOverWire is the end-to-end scrape contract: an instrumented
// server (deployment registry + serving-tier registry) answers the
// METRICS opcode with one merged snapshot — per-opcode latency
// histograms with real counts, the error taxonomy, connection churn, and
// the replication tier's instruments all flow back through kvclient.
// The deployment is durable so the WAL's lazily registered instruments
// are live too, which makes the merged catalogue the full one: no name
// may be registered by both registries, because METRICS folds them into
// one namespace.
func TestMetricsOverWire(t *testing.T) {
	db, err := repro.New(repro.Config{
		Version:    repro.V3InlineLog,
		Backup:     repro.ActiveBackup,
		DBSize:     4 << 20,
		Backups:    2,
		Safety:     repro.QuorumSafe,
		Metrics:    true,
		Durability: repro.DurabilityConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	sreg := obs.NewRegistry()
	srv := New(store, Config{Logf: t.Logf, Obs: sreg})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	cl := kvclient.Dial(l.Addr().String(), kvclient.Options{Conns: 2})
	defer cl.Close()

	const puts = 50
	for i := 0; i < puts; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < puts; i++ {
		if _, err := cl.Get([]byte(fmt.Sprintf("key%04d", i))); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if _, err := cl.Get([]byte("never-written")); err == nil {
		t.Fatal("missing key found")
	}

	m, err := cl.Metrics()
	if err != nil {
		t.Fatalf("metrics scrape: %v", err)
	}
	if m.Empty() {
		t.Fatal("instrumented server returned an empty snapshot")
	}
	if h := m.Hist(MetricOpLatency + "put.latency"); h.Count < puts {
		t.Errorf("put latency observations = %d, want >= %d", h.Count, puts)
	} else if h.Percentile(0.99) <= 0 {
		t.Errorf("put p99 = %v, want > 0", h.Percentile(0.99))
	}
	if h := m.Hist(MetricOpLatency + "get.latency"); h.Count < puts {
		t.Errorf("get latency observations = %d, want >= %d", h.Count, puts)
	}
	if got := m.Counter(MetricErrNotFound); got < 1 {
		t.Errorf("server.err.notfound = %d, want >= 1", got)
	}
	if got := m.Counter("repl.commit.txns"); got == 0 {
		t.Error("deployment registry missing from the merged snapshot")
	}
	if got := m.Counter("wal.fsyncs"); got == 0 {
		t.Error("the durable deployment's WAL instruments are missing from the merged snapshot")
	}
	if got := m.Counter(MetricConnsOpened); got < 2 {
		t.Errorf("server.conns.opened = %d, want >= 2", got)
	}

	// The scrape itself is an op: a second snapshot sees the first.
	m2, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if h := m2.Hist(MetricOpLatency + "metrics.latency"); h.Count < 1 {
		t.Errorf("metrics-op latency observations = %d, want >= 1", h.Count)
	}

	deployment := map[string]bool{}
	for _, name := range db.Metrics().Names() {
		deployment[name] = true
	}
	serving := sreg.Snapshot().Names()
	if len(deployment) == 0 || len(serving) == 0 {
		t.Fatalf("%d deployment and %d serving metric names, want both registries populated", len(deployment), len(serving))
	}
	for _, name := range serving {
		if deployment[name] {
			t.Errorf("metric %q is registered by both the deployment and the server", name)
		}
	}
}

// TestMetricsUninstrumented: a server with no registry attached (the
// default) answers METRICS with the empty snapshot — the opcode is part
// of the protocol whether or not observability is on, and an
// uninstrumented deployment stays exactly the pre-observability build.
func TestMetricsUninstrumented(t *testing.T) {
	srv, _, addr := serve(t, repro.Config{Backups: 1})
	defer srv.Close()

	cl := kvclient.Dial(addr, kvclient.Options{Conns: 1})
	defer cl.Close()
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatalf("metrics scrape: %v", err)
	}
	if !m.Empty() {
		t.Fatalf("uninstrumented server reported instruments: %v", m.Names())
	}
}
