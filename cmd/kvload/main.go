// Command kvload drives a kvserver with thousands of concurrent
// connections and reports client-observed wall-clock latency.
//
// Each connection is one worker goroutine over one pipelined kvclient
// connection; all workers draw operations from one shared counter and
// record latencies into one shared histogram, so the output is the
// cross-client p50/p99/p999 a real front-end fleet would see. Writers
// own disjoint key ranges and version every value, which makes the
// final audit exact: after the load (and any failover the server went
// through meanwhile), every key whose put was acknowledged must be
// readable with a version at least as new as the last acknowledged one —
// a single missing or stale key is acknowledged-write loss and the
// process exits nonzero.
//
//	kvload -addr host:7791 -conns 1000 -ops 200000
//
// The repeatable, gated measurement of the served path — steady mixes and
// the crash drill — is bench/ (see bench/README.md); kvload is the
// hand-held load generator for a server that is already running.
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
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/kvclient"
)

func main() {
	var (
		addr    = flag.String("addr", "", "kvserver address to load or scrape")
		conns   = flag.Int("conns", 1000, "concurrent client connections (one worker per connection)")
		ops     = flag.Int("ops", 100_000, "total operations across all workers")
		keys    = flag.Int("keys", 10_000, "keyspace size")
		valSize = flag.Int("value", 128, "value size in bytes (versioned header included)")
		reads   = flag.Int("reads", 50, "percentage of operations that are GETs")
		rate    = flag.Int("rate", 0, "open-loop offered load in ops/s across all workers (0 = closed loop)")
		seed    = flag.Int64("seed", 1, "workload RNG seed")
		scrape  = flag.Bool("scrape", false, "fetch the server's metrics snapshot (kvwire METRICS), print per-opcode latency and counters, and exit — no load is run")
		quiet   = flag.Bool("q", false, "suppress progress log lines")
	)
	flag.Parse()
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "kvload: -addr is required")
		os.Exit(2)
	}
	if *scrape {
		if err := scrapeMetrics(*addr); err != nil {
			log.Fatalf("kvload: scrape: %v", err)
		}
		return
	}
	if *valSize < versionLen || *valSize > 200 {
		fmt.Fprintf(os.Stderr, "kvload: -value must be in [%d, 200] (kv slot payload)\n", versionLen)
		os.Exit(2)
	}
	if *keys < *conns {
		fmt.Fprintln(os.Stderr, "kvload: -keys must be >= -conns (each worker owns a disjoint key range)")
		os.Exit(2)
	}

	res := run(*addr, loadSpec{
		conns: *conns, ops: *ops, keys: *keys, valSize: *valSize,
		reads: *reads, rate: *rate, seed: *seed, logf: logf,
	})

	fmt.Printf("kvload: %d ops over %d conns in %.2fs: %.0f ops/s, %d retries, %d redials, %d failed\n",
		res.completed, *conns, res.elapsed.Seconds(), res.opsPerSec, res.retries, res.redials, res.failed)
	fmt.Printf("kvload: latency mean=%.3fms p50=%.3fms p99=%.3fms p999=%.3fms\n",
		ms(res.hist.Mean()), ms(res.hist.Percentile(0.50)),
		ms(res.hist.Percentile(0.99)), ms(res.hist.Percentile(0.999)))
	fmt.Printf("kvload: audit of %d acked keys: %d missing, %d stale\n",
		res.audited, res.missing, res.stale)

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

// versionLen is the length of the version header every value carries:
// "v%012d|".
const versionLen = 14

type loadSpec struct {
	conns, ops, keys, valSize, reads, rate int
	seed                                   int64
	logf                                   func(string, ...any)
}

type loadResult struct {
	hist      obs.Hist
	completed int64
	failed    int64
	retries   uint64
	redials   uint64
	elapsed   time.Duration
	opsPerSec float64
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
		completed atomic.Int64
		failed    atomic.Int64
	)

	clients := make([]*kvclient.Client, spec.conns)
	for i := range clients {
		clients[i] = kvclient.Dial(target, kvclient.Options{Conns: 1, RetryBudget: 30 * time.Second})
	}

	start := time.Now()
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
