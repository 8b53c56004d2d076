// Command kvload drives a kvserver with thousands of concurrent
// connections and reports client-observed wall-clock latency.
//
// Each connection is one worker goroutine over one pipelined kvclient
// connection; all workers draw operations from one shared counter and
// record latencies into one shared histogram, so the output is the
// cross-client p50/p99/p999 a real front-end fleet would see. Writers
// own disjoint key ranges and version every value, which makes the
// final audit exact: after the load (and any injected crash +
// failover), every key whose put was acknowledged must be readable
// with a version at least as new as the last acknowledged one — a
// single missing or stale key is acknowledged-write loss and the
// process exits nonzero.
//
// Against a remote server:
//
//	kvload -addr host:7791 -conns 1000 -ops 200000
//
// Self-hosted (deployment + server in-process, the `make bench` server
// cell): add -selfhost and optionally -crash N to kill the primary
// after N acknowledged operations mid-load:
//
//	kvload -selfhost -conns 1000 -ops 100000 -crash 20000 -benchfmt
//
// -benchfmt additionally emits the result as a `go test -bench`-format
// line (BenchmarkServerLoad/...) that cmd/benchjson converts into
// BENCH_server.json.
//
// -rate switches from closed-loop (each worker fires its next request
// when the previous answer lands) to open-loop: operations are launched
// on a fixed global schedule of -rate ops/s and latency is measured
// from the *scheduled* start, so a stalled server accrues queueing
// delay instead of silently slowing the offered load (no coordinated
// omission).
//
// -scrape skips the load entirely: it fetches the server's metrics
// snapshot over the wire (the kvwire METRICS opcode), prints every
// latency histogram's p50/p99 plus the counters and gauges, and exits —
// the command-line view of what the server's Prometheus endpoint
// exposes:
//
//	kvload -addr host:7791 -scrape
//
// With -selfhost, -metrics instruments the in-process deployment and
// server, and the same scrape report prints after the load completes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/kv"
	"repro/kvclient"
)

func main() {
	var (
		addr     = flag.String("addr", "", "kvserver address to load (mutually exclusive with -selfhost)")
		selfhost = flag.Bool("selfhost", false, "host the deployment and server in-process on 127.0.0.1:0")
		conns    = flag.Int("conns", 1000, "concurrent client connections (one worker per connection)")
		ops      = flag.Int("ops", 100_000, "total operations across all workers")
		keys     = flag.Int("keys", 10_000, "keyspace size")
		valSize  = flag.Int("value", 128, "value size in bytes (versioned header included)")
		reads    = flag.Int("reads", 50, "percentage of operations that are GETs")
		rate     = flag.Int("rate", 0, "open-loop offered load in ops/s across all workers (0 = closed loop)")
		crashN   = flag.Int("crash", 0, "selfhost only: crash the primary after N acknowledged operations")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		benchfmt = flag.Bool("benchfmt", false, "emit a go test -bench format result line for cmd/benchjson")
		scrape   = flag.Bool("scrape", false, "fetch the server's metrics snapshot (kvwire METRICS), print per-opcode latency and counters, and exit — no load is run (requires -addr)")
		metrics  = flag.Bool("metrics", false, "selfhost: instrument the deployment and server; the scrape report prints after the load")
		quiet    = flag.Bool("q", false, "suppress progress log lines")

		// Selfhost deployment shape (mirrors cmd/kvserver).
		dbMB      = flag.Int("db-mb", 8, "selfhost: replicated database size in MiB")
		backups   = flag.Int("backups", 3, "selfhost: backups per replica group")
		safety    = flag.String("safety", "quorum", "selfhost: commit discipline (1safe, 2safe, quorum)")
		autopilot = flag.Bool("autopilot", true, "selfhost: run the autopilot (unattended failover)")
	)
	flag.Parse()
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if (*addr == "") == !*selfhost {
		fmt.Fprintln(os.Stderr, "kvload: exactly one of -addr or -selfhost is required")
		os.Exit(2)
	}
	if *scrape {
		if *addr == "" {
			fmt.Fprintln(os.Stderr, "kvload: -scrape requires -addr")
			os.Exit(2)
		}
		if err := scrapeMetrics(*addr); err != nil {
			log.Fatalf("kvload: scrape: %v", err)
		}
		return
	}
	if *metrics && !*selfhost {
		fmt.Fprintln(os.Stderr, "kvload: -metrics requires -selfhost (point -scrape at a remote server instead)")
		os.Exit(2)
	}
	if *valSize < versionLen || *valSize > 200 {
		fmt.Fprintf(os.Stderr, "kvload: -value must be in [%d, 200] (kv slot payload)\n", versionLen)
		os.Exit(2)
	}
	if *keys < *conns {
		fmt.Fprintln(os.Stderr, "kvload: -keys must be >= -conns (each worker owns a disjoint key range)")
		os.Exit(2)
	}

	target := *addr
	var admin repro.Admin
	var srv *kvserver.Server
	if *selfhost {
		var err error
		target, admin, srv, err = host(*dbMB, *backups, *safety, *autopilot, *metrics, logf)
		if err != nil {
			log.Fatalf("kvload: selfhost: %v", err)
		}
		logf("kvload: self-hosted kvserver on %s (backups=%d safety=%s autopilot=%v)",
			target, *backups, *safety, *autopilot)
	}
	if *crashN > 0 && admin == nil {
		fmt.Fprintln(os.Stderr, "kvload: -crash requires -selfhost")
		os.Exit(2)
	}

	res := run(target, loadSpec{
		conns: *conns, ops: *ops, keys: *keys, valSize: *valSize,
		reads: *reads, rate: *rate, crashN: *crashN, seed: *seed,
		admin: admin, logf: logf,
	})

	fmt.Printf("kvload: %d ops over %d conns in %.2fs: %.0f ops/s, %d retries, %d redials, %d failed\n",
		res.completed, *conns, res.elapsed.Seconds(), res.opsPerSec, res.retries, res.redials, res.failed)
	fmt.Printf("kvload: latency mean=%.3fms p50=%.3fms p99=%.3fms p999=%.3fms\n",
		ms(res.hist.Mean()), ms(res.hist.Percentile(0.50)),
		ms(res.hist.Percentile(0.99)), ms(res.hist.Percentile(0.999)))
	if res.crashed {
		fmt.Printf("kvload: primary crashed mid-load after %d acked ops; audit of %d acked keys: %d missing, %d stale\n",
			*crashN, res.audited, res.missing, res.stale)
	} else {
		fmt.Printf("kvload: audit of %d acked keys: %d missing, %d stale\n",
			res.audited, res.missing, res.stale)
	}

	if *benchfmt {
		name := fmt.Sprintf("BenchmarkServerLoad/conns=%d", *conns)
		if *crashN > 0 {
			name += "/crash"
		}
		mean := res.hist.Mean().Nanoseconds()
		if mean < 1 {
			mean = 1
		}
		fmt.Printf("%s %d %d ns/op %.0f wall-ops/s %.3f p50-ms %.3f p99-ms %.3f p999-ms %d lost-acked-writes\n",
			name, res.completed, mean, res.opsPerSec,
			ms(res.hist.Percentile(0.50)), ms(res.hist.Percentile(0.99)),
			ms(res.hist.Percentile(0.999)), res.missing+res.stale)
	}

	if *metrics {
		if err := scrapeMetrics(target); err != nil {
			logf("kvload: post-load scrape: %v", err)
		}
	}

	if srv != nil {
		if err := srv.Close(); err != nil {
			logf("kvload: server close: %v", err)
		}
	}
	if res.missing > 0 || res.stale > 0 {
		fmt.Fprintf(os.Stderr, "kvload: FAILED: %d acknowledged writes lost\n", res.missing+res.stale)
		os.Exit(1)
	}
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "kvload: FAILED: %d operations never succeeded within the retry budget\n", res.failed)
		os.Exit(1)
	}
}

// scrapeMetrics fetches the server's metrics snapshot over the wire and
// prints every latency histogram's p50/p99 plus the counters and gauges.
func scrapeMetrics(addr string) error {
	cl := kvclient.Dial(addr, kvclient.Options{Conns: 1, RetryBudget: 5 * time.Second})
	defer cl.Close()
	m, err := cl.Metrics()
	if err != nil {
		return err
	}
	if m.Empty() {
		fmt.Println("kvload: scrape: server reports no instruments (observability off)")
		return nil
	}
	fmt.Printf("kvload: scrape: window=%d events=%d\n", m.Window, len(m.Events))
	for _, n := range m.Names() {
		if h, ok := m.Hists[n]; ok {
			fmt.Printf("  %-28s count=%-9d p50=%-12v p99=%v\n",
				n, h.Count, h.Percentile(0.50), h.Percentile(0.99))
		} else if v, ok := m.Counters[n]; ok {
			fmt.Printf("  %-28s %d\n", n, v)
		} else if v, ok := m.Gauges[n]; ok {
			fmt.Printf("  %-28s %d\n", n, v)
		}
	}
	return nil
}

// host builds the in-process deployment + server and returns its address.
func host(dbMB, backups int, safety string, autopilot, metrics bool, logf func(string, ...any)) (string, repro.Admin, *kvserver.Server, error) {
	cfg := repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  dbMB << 20,
		Backups: backups,
		Metrics: metrics,
	}
	switch safety {
	case "1safe":
		cfg.Safety = repro.OneSafe
	case "2safe":
		cfg.Safety = repro.TwoSafe
	case "quorum":
		cfg.Safety = repro.QuorumSafe
	default:
		return "", nil, nil, fmt.Errorf("unknown safety level %q", safety)
	}
	if autopilot {
		cfg.Autopilot = repro.AutopilotConfig{
			HeartbeatPeriod: 200 * time.Microsecond,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          1,
		}
	}
	db, err := repro.New(cfg)
	if err != nil {
		return "", nil, nil, err
	}
	store, err := kv.Open(db)
	if err != nil {
		return "", nil, nil, err
	}
	scfg := kvserver.Config{Logf: logf}
	if metrics {
		scfg.Obs = obs.NewRegistry()
	}
	srv := kvserver.New(store, scfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	go srv.Serve(l)
	return l.Addr().String(), db, srv, nil
}

// versionLen is the length of the version header every value carries:
// "v%012d|".
const versionLen = 14

type loadSpec struct {
	conns, ops, keys, valSize, reads, rate, crashN int
	seed                                           int64
	admin                                          repro.Admin
	logf                                           func(string, ...any)
}

type loadResult struct {
	hist      obs.Hist
	completed int64
	failed    int64
	retries   uint64
	redials   uint64
	elapsed   time.Duration
	opsPerSec float64
	crashed   bool
	audited   int
	missing   int
	stale     int
}

// run executes the load and the post-load audit.
func run(target string, spec loadSpec) *loadResult {
	res := &loadResult{}
	// acked[k] is the newest acknowledged version for key k (-1 = no
	// acked put). Each key has exactly one writer, so the slot is
	// monotone and the audit below is exact.
	acked := make([]atomic.Int64, spec.keys)
	for i := range acked {
		acked[i].Store(-1)
	}
	var (
		next      atomic.Int64 // operation dispenser
		ackedOps  atomic.Int64 // acked mutations, drives -crash
		completed atomic.Int64
		failed    atomic.Int64
	)

	clients := make([]*kvclient.Client, spec.conns)
	for i := range clients {
		clients[i] = kvclient.Dial(target, kvclient.Options{Conns: 1, RetryBudget: 30 * time.Second})
	}

	start := time.Now()
	if spec.crashN > 0 {
		go func() {
			for ackedOps.Load() < int64(spec.crashN) {
				time.Sleep(200 * time.Microsecond)
			}
			if err := spec.admin.CrashPrimary(); err != nil {
				spec.logf("kvload: crash injection: %v", err)
				return
			}
			res.crashed = true
			spec.logf("kvload: *** crashed the primary after %d acked ops ***", spec.crashN)
		}()
	}

	// The open-loop schedule: operation i launches at start+i*interval,
	// whichever worker draws it.
	var interval time.Duration
	if spec.rate > 0 {
		interval = time.Duration(int64(time.Second) / int64(spec.rate))
	}

	var wg sync.WaitGroup
	perWorker := spec.keys / spec.conns
	for w := 0; w < spec.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(spec.seed + int64(w)))
			cl := clients[w]
			lo := w * perWorker // this worker's write range: [lo, lo+perWorker)
			val := make([]byte, spec.valSize)
			for i := range val {
				val[i] = 'x'
			}
			for {
				i := next.Add(1) - 1
				if i >= int64(spec.ops) {
					return
				}
				opStart := time.Now()
				if interval > 0 {
					sched := start.Add(time.Duration(i) * interval)
					if d := time.Until(sched); d > 0 {
						time.Sleep(d)
					}
					opStart = sched // queueing delay counts (no coordinated omission)
				}
				var err error
				if rng.Intn(100) < spec.reads {
					k := rng.Intn(spec.keys)
					_, err = cl.Get(key(k))
					if errors.Is(err, kvclient.ErrNotFound) {
						err = nil // absent keys are a valid read result
					}
				} else {
					k := lo + rng.Intn(perWorker)
					copy(val, fmt.Sprintf("v%012d|", i))
					if err = cl.Put(key(k), val); err == nil {
						acked[k].Store(i)
						ackedOps.Add(1)
					}
				}
				if err != nil {
					failed.Add(1)
				} else {
					completed.Add(1)
				}
				res.hist.Record(time.Since(opStart))
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.completed = completed.Load()
	res.failed = failed.Load()
	res.opsPerSec = float64(res.completed) / res.elapsed.Seconds()
	for _, cl := range clients {
		res.retries += cl.Retries()
		res.redials += cl.Redials()
		cl.Close()
	}

	// Audit on fresh connections: every acknowledged put must be
	// readable at or after its acked version.
	audit := kvclient.Dial(target, kvclient.Options{Conns: 8, RetryBudget: 30 * time.Second})
	defer audit.Close()
	for k := 0; k < spec.keys; k++ {
		want := acked[k].Load()
		if want < 0 {
			continue
		}
		res.audited++
		got, err := audit.Get(key(k))
		if err != nil {
			res.missing++
			spec.logf("kvload: audit: key %d acked at version %d: %v", k, want, err)
			continue
		}
		var ver int64
		if _, err := fmt.Sscanf(string(got[:versionLen]), "v%d|", &ver); err != nil || ver < want {
			res.stale++
			spec.logf("kvload: audit: key %d acked at version %d, read %q", k, want, got[:versionLen])
		}
	}
	return res
}

func key(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
