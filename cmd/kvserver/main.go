// Command kvserver serves a replicated kv keyspace over TCP.
//
// It hosts one deployment — a primary/backup replica group (or a
// sharded fleet of them) with the autopilot watching it — formats a
// kv.Store inside the replicated bytes, and serves the kvwire protocol
// on -addr. A primary crash costs no acknowledged writes: clients see
// retryable errors while the autopilot promotes a survivor, the server
// re-Opens the store in place, and the retries then land.
//
// Usage:
//
//	kvserver [-addr :7791] [-db-mb 8] [-backups 3]
//	         [-safety 1safe|2safe|quorum] [-shards 1]
//	         [-autopilot=true] [-q]
//	         [-data-dir DIR] [-snapshot-every N]
//	         [-metrics-addr :7792]
//
// With -metrics-addr set, the deployment and the serving tier are
// instrumented and an HTTP endpoint serves GET /metrics in the
// Prometheus text exposition format: commit/flush latency histograms,
// per-opcode serving latencies, WAL fsync costs, read-route counters and
// the failure/repair event ring's depth. The same snapshot is available
// in JSON over the wire itself (the kvwire METRICS opcode — see
// kvclient.Metrics), and net/http/pprof is served under /debug/pprof/.
// Without the flag nothing is instrumented and the serving path is
// exactly the uninstrumented build.
//
// With -data-dir set, every replica keeps a redo WAL plus periodic
// snapshots under DIR (per shard under DIR/shard-NNN), fsynced on the
// group-commit cadence. Relaunching with the same -data-dir is a cold
// restart: the deployment recovers from the newest valid snapshot plus
// WAL replay — truncating a torn tail — before serving, so acknowledged
// writes survive a full-process kill. Without -data-dir the keyspace is
// memory-only, exactly as before.
//
// SIGINT/SIGTERM drain gracefully: accepted requests are answered, the
// WAL is synced and closed, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/kv"
)

func main() {
	var (
		addr      = flag.String("addr", ":7791", "TCP listen address")
		dbMB      = flag.Int("db-mb", 8, "replicated database size in MiB (per shard)")
		backups   = flag.Int("backups", 3, "backups per replica group (3 at quorum rides out a failover without losing the safety level)")
		safety    = flag.String("safety", "quorum", "commit discipline (1safe, 2safe, quorum)")
		shards    = flag.Int("shards", 1, "independent replica groups; keys are range-partitioned across them by the store")
		autopilot = flag.Bool("autopilot", true, "run the autopilot (heartbeat failure detection + unattended failover)")
		dataDir   = flag.String("data-dir", "", "durability directory: per-replica redo WAL + snapshots; relaunch with the same dir to cold-restart from disk (empty = memory-only)")
		snapEvery = flag.Int("snapshot-every", 0, "checkpoint a snapshot every N commits per replica (0 = default; needs -data-dir)")
		metrics   = flag.String("metrics-addr", "", "HTTP listen address for the Prometheus /metrics endpoint; also instruments the deployment and serving tier (empty = observability off)")
		quiet     = flag.Bool("q", false, "suppress serving log lines")
	)
	flag.Parse()

	cfg := repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  *dbMB << 20,
		Backups: *backups,
	}
	switch *safety {
	case "1safe":
		cfg.Safety = repro.OneSafe
	case "2safe":
		cfg.Safety = repro.TwoSafe
	case "quorum":
		cfg.Safety = repro.QuorumSafe
	default:
		fmt.Fprintf(os.Stderr, "kvserver: unknown safety level %q\n", *safety)
		os.Exit(2)
	}
	if *dataDir != "" {
		cfg.Durability = repro.DurabilityConfig{
			Dir:           *dataDir,
			SnapshotEvery: *snapEvery,
		}
	} else if *snapEvery != 0 {
		fmt.Fprintln(os.Stderr, "kvserver: -snapshot-every needs -data-dir")
		os.Exit(2)
	}
	if *autopilot {
		cfg.Autopilot = repro.AutopilotConfig{
			HeartbeatPeriod: 200 * time.Microsecond,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          1,
		}
	}
	cfg.Metrics = *metrics != ""

	db, err := repro.NewSharded(cfg, *shards)
	if err != nil {
		log.Fatalf("kvserver: deployment: %v", err)
	}
	if *dataDir != "" {
		for i := 0; i < db.Shards(); i++ {
			st := db.Shard(i).Durability()
			if r := st.Recovery; r.Recovered {
				log.Printf("kvserver: shard %d cold restart: era=%d seq=%d (snapshot %d + %d replayed, %d torn bytes truncated, %d resynced, %d rejoined)",
					i, r.Era, r.Seq, r.SnapSeq, r.Replayed, r.TruncatedBytes, r.Resynced, r.Rejoined)
			}
		}
	}
	store, err := kv.Open(db)
	if err != nil {
		log.Fatalf("kvserver: kv.Open: %v", err)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	scfg := kvserver.Config{Logf: logf}
	if *metrics != "" {
		// The serving tier's own registry; the deployment's (created by
		// cfg.Metrics above) stays separate and the OpMetrics/HTTP
		// surfaces merge the two.
		scfg.Obs = obs.NewRegistry()
	}
	srv := kvserver.New(store, scfg)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("kvserver: listen: %v", err)
	}

	var msrv *http.Server
	if *metrics != "" {
		ml, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("kvserver: metrics listen: %v", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := obs.WritePrometheus(w, srv.Metrics()); err != nil {
				logf("kvserver: metrics scrape: %v", err)
			}
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		msrv = &http.Server{Handler: mux}
		go func() {
			if err := msrv.Serve(ml); err != nil && err != http.ErrServerClosed {
				logf("kvserver: metrics serve: %v", err)
			}
		}()
	}

	// One structured line with the whole serving configuration, so a log
	// scrape (or a human) can reconstruct the deployment from it alone.
	durDesc, metricsDesc := "off", "off"
	if *dataDir != "" {
		durDesc = *dataDir
	}
	if *metrics != "" {
		metricsDesc = *metrics
	}
	logf("kvserver: serving addr=%s shards=%d backups=%d safety=%s autopilot=%v db_mib=%d durability=%s metrics=%s",
		l.Addr(), *shards, *backups, cfg.Safety, *autopilot, *dbMB, durDesc, metricsDesc)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case sig := <-sigc:
		logf("kvserver: %v — draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if msrv != nil {
			msrv.Shutdown(ctx)
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("kvserver: drain: %v", err)
		}
		if err := db.Close(); err != nil {
			log.Fatalf("kvserver: close: %v", err)
		}
		logf("kvserver: drained")
	case err := <-serveErr:
		if err != nil {
			log.Fatalf("kvserver: serve: %v", err)
		}
	}
}
