package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/kvserver"
	"repro/internal/replication"
	"repro/internal/sim"
)

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianDur is the median of durations, in microseconds.
func medianDur(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = us(d)
	}
	return median(vals)
}

// scrape is what the program's own observability said about a traced run.
type scrape struct {
	snap    repro.Metrics // deployment and server registries, merged
	reopens uint64
	retried uint64 // responses the server answered with "retry"
	retries uint64 // operations the client sent again
	redials uint64
}

// scrape reads the program's observability the way an operator would: the
// metrics document over the wire, and the server's and client's counters.
func (r *servedRun) scrape() (scrape, error) {
	snap, err := r.g.cl.Metrics()
	if err != nil {
		return scrape{}, fmt.Errorf("scrape over the wire: %w", err)
	}
	st := r.h.srv.Stats()
	return scrape{snap: snap, reopens: st.Reopens, retried: st.Retries,
		retries: r.g.cl.Retries(), redials: r.g.cl.Redials()}, nil
}

func (r *inprocRun) scrape() (scrape, error) { return scrape{snap: r.db.Metrics()}, nil }

// traceScale splits a traced run's window: the first sub-window runs
// untraced, as the baseline the tracing overhead is measured against, and
// the rest runs traced.
func traceScale(sc scale) (base, traced scale) {
	base, traced = sc, sc
	base.subs, traced.subs = 1, sc.subs-1
	return base, traced
}

// runTraced measures w with the program's observability on and the
// benchmark's spans recorded, runs the ladder, and reports the per-layer
// metrics.
func runTraced(w workload, sc scale, seed uint64) (*report, error) {
	baseScale, tracedScale := traceScale(sc)

	p0, _, err := setUp(w, sc, seed, false)
	if err != nil {
		return nil, err
	}
	base, err := p0.measure(baseScale)
	if err == nil {
		err = p0.check()
	}
	p0.close()
	if err != nil {
		return nil, err
	}

	p, _, err := setUp(w, sc, seed, true)
	if err != nil {
		return nil, err
	}
	defer p.close()
	tr := newTracer()
	p.setTracer(tr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := p.measure(tracedScale)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	sc0, err := p.scrape()
	if err != nil {
		return nil, err
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	path, err := tr.write(w.name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans in %s\n", len(tr.spans), path)

	div := 1
	if sc.smoke {
		div = 50
	}
	rungs, err := runLadder(div, outDir())
	if err != nil {
		return nil, err
	}

	win := m.win
	ops, puts := float64(len(win.lats)), float64(len(win.putLats))
	// On Debit-Credit the latencies are those of commit batches, and they
	// are the facade's, not a client's.
	var batchP50, batchP99 float64
	if !w.served {
		ops, puts = float64(win.attempted), float64(win.attempted)
		batchP50, batchP99 = percentile(win.lats, 0.5)/1e3, percentile(win.lats, 0.99)/1e3
		win.lats, win.getLats, win.putLats = nil, nil, nil
	}
	tracedRate := win.subMedian(func(s subWindow) float64 { return s.opsPerS })
	baseRate := base.win.subMedian(func(s subWindow) float64 { return s.opsPerS })
	snap := sc0.snap
	getP50, putP50 := percentile(win.getLats, 0.5)/1e3, percentile(win.putLats, 0.5)/1e3
	getExec := us(snap.Hist(kvserver.MetricOpLatency + "get.latency").Percentile(0.5))
	putExec := us(snap.Hist(kvserver.MetricOpLatency + "put.latency").Percentile(0.5))
	commitTxns := float64(snap.Counter(replication.MetricCommitTxns))
	self := tr.selfTimes()
	var mttd, failover []time.Duration
	for _, e := range m.events {
		if e.Kind == "primary" && e.FailedOverAt > 0 {
			mttd = append(mttd, e.MTTD())
			failover = append(failover, e.FailoverLatency())
		}
	}

	rep := newReport(win)
	rep.Metrics = rungs
	set := rep.set
	set("kvclient.get_p50_us", "us", getP50)
	set("kvclient.put_p50_us", "us", putP50)
	set("kvclient.p99_us", "us", percentile(win.lats, 0.99)/1e3)
	set("kvclient.p999_us", "us", percentile(win.lats, 0.999)/1e3)
	set("kvclient.retries", "count", float64(sc0.retries))
	set("kvclient.redials", "count", float64(sc0.redials))
	set("kvclient.outage_ms", "ms", medianDur(m.outages)/1e3)
	set("kvserver.get_exec_p50_us", "us", getExec)
	set("kvserver.put_exec_p50_us", "us", putExec)
	// The occupancy histogram stores a count where the others store
	// nanoseconds.
	set("kvserver.window_occupancy_p50", "count", float64(snap.Hist(kvserver.MetricWindowOccupancy).Percentile(0.5)))
	set("kvserver.reopens", "count", float64(sc0.reopens))
	set("kvserver.err_retry", "count", float64(sc0.retried))
	// What the client waited beyond the server's execution: its own queue,
	// both codecs, four syscalls and the server's reader and writer queues.
	set("kvclient.wire_wait_get_p50_us", "us", wireWait(getP50, getExec))
	set("kvclient.wire_wait_put_p50_us", "us", wireWait(putP50, putExec))
	// DESIGN.md gives this histogram's unit as simulated nanoseconds; what
	// the group records is sim.Time, which counts picoseconds.
	set("replication.commit_sim_p50_us", "us", float64(snap.Hist(replication.MetricCommitLatency+"quorum").Percentile(0.5))/float64(sim.Microsecond))
	set("replication.batch_occupancy_mean", "count", histMean(snap, replication.MetricBatchOccupancy))
	set("replication.commits_per_put", "count", ratio(commitTxns, puts))
	reads := float64(snap.Counter(replication.MetricReadPrimary) + snap.Counter(replication.MetricReadReplica) + snap.Counter(replication.MetricReadFallback))
	set("replication.read_replica_share", "share", ratio(float64(snap.Counter(replication.MetricReadReplica)), reads))
	set("replication.failover_sim_us", "us", medianDur(failover))
	set("replication.repair_bytes", "B", float64(m.traffic.SyncBytes))
	set("detect.mttd_sim_us", "us", medianDur(mttd))
	set("memchannel.data_bytes_per_txn", "B", m.perTxn(m.traffic.ModifiedBytes+m.traffic.UndoBytes))
	set("memchannel.meta_bytes_per_txn", "B", m.perTxn(m.traffic.MetaBytes))
	set("memchannel.control_bytes_per_txn", "B", m.perTxn(m.traffic.ControlBytes))
	set("memchannel.sync_bytes_per_txn", "B", m.perTxn(m.traffic.SyncBytes))
	set("repro.batch_p50_us", "us", batchP50)
	set("repro.batch_p99_us", "us", batchP99)
	set("repro.begin_self_ns", "ns", median(self["repro.Begin"]))
	set("repro.write_self_ns", "ns", median(self["repro.Write"]))
	set("repro.commit_self_ns", "ns", median(self["repro.Commit"]))
	set("runtime.cpu_us_per_op", "us", win.subMedian(func(s subWindow) float64 { return s.cpuUsOp }))
	set("runtime.allocs_per_op", "count", ratio(float64(after.Mallocs-before.Mallocs), ops))
	set("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	set("runtime.heap_mb", "MB", float64(after.HeapAlloc)/(1<<20))
	set("loadgen.max_lag_ms", "ms", us(m.maxLag)/1e3)
	set("loadgen.queue_self_us", "us", median(append(self["op.get"], self["op.put"]...))/1e3)
	set("loadgen.resends", "count", float64(m.resent))
	set("loadgen.samples", "count", win.subMedian(func(s subWindow) float64 { return float64(s.completed) }))
	// The wall-clock speed of the untraced sub-window. Not end to end: on
	// this sandbox it does not repeat within a tenth (README.md).
	set("loadgen.ops_per_s", "1/s", baseRate)
	set("loadgen.op_p50_us", "us", base.win.subMedian(func(s subWindow) float64 { return s.opP50us }))
	set("trace.overhead_share", "share", 1-ratio(tracedRate, baseRate))
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wireWait is the client's median less the server's, where both exist.
func wireWait(client, server float64) float64 {
	if client == 0 || server == 0 {
		return 0
	}
	return client - server
}

// histMean is the exact mean of a histogram's samples; the snapshot's own
// Mean rounds down to a whole number.
func histMean(snap repro.Metrics, name string) float64 {
	h := snap.Hist(name)
	return ratio(float64(h.Sum), float64(h.Count))
}

// outDir is where the benchmark writes files: out/ beside its sources.
func outDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out" // run from the root of the repository
	}
	return "out"
}
