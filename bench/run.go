package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
)

// measured is what one measured window produced, before it is reduced to
// metrics.
type measured struct {
	win window
	// The sim-domain numbers belong together: txns transactions took
	// simTime of simulated time and shipped traffic over the SAN. txns
	// counts what a client of the deployment committed since set-up ended —
	// a Debit-Credit transaction or an acknowledged PUT — and not the
	// deployment's own commit counter: on a sharded deployment one PUT is
	// four or so shard-level commits, how many depending on how the
	// connections interleave, and after a failover the counter restarts.
	txns    int64
	simTime time.Duration
	traffic repro.Traffic
	events  []repro.FailureEvent
	// Crash drill only.
	outages []time.Duration
	maxLag  time.Duration
	// resent counts the times the load generator sent an operation again
	// after the client had given up on it.
	resent int64
}

func (m *measured) simTPS() float64 { return ratio(float64(m.txns), m.simTime.Seconds()) }

func (m *measured) perTxn(bytes int64) float64 { return ratio(float64(bytes), float64(m.txns)) }

// cpuTime returns the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleCPU reads the process CPU time at the start of the window and at
// the end of every sub-window, and sends the readings when the window is
// over.
func sampleCPU(start time.Time, sc scale) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	cpu := []time.Duration{cpuTime()}
	go func() {
		for i := 1; i <= sc.subs; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * sc.sub)))
			cpu = append(cpu, cpuTime())
		}
		out <- cpu
	}()
	return out
}

// fillCPU sets each sub-window's CPU per completed operation.
func (m *measured) fillCPU(cpu []time.Duration) {
	for i := range m.win.subs {
		s := &m.win.subs[i]
		if s.completed > 0 {
			s.cpuUsOp = float64(cpu[i+1]-cpu[i]) / 1e3 / float64(s.completed)
		}
	}
}

// snapshotSim reads the sim-domain counters after txns transactions. Call
// it as soon as the last of them has committed: the audit's reads are
// charged simulated time too.
func (m *measured) snapshotSim(db repro.DB, txns int64) {
	m.txns = txns
	m.simTime = db.Elapsed()
	m.traffic = db.NetTraffic()
	m.events = db.AutopilotEvents()
}

// addTraffic returns the sum of a and b, category by category.
func addTraffic(a, b repro.Traffic) repro.Traffic {
	return repro.Traffic{
		ModifiedBytes: a.ModifiedBytes + b.ModifiedBytes,
		UndoBytes:     a.UndoBytes + b.UndoBytes,
		MetaBytes:     a.MetaBytes + b.MetaBytes,
		SyncBytes:     a.SyncBytes + b.SyncBytes,
		ControlBytes:  a.ControlBytes + b.ControlBytes,
	}
}

// measure runs the served workload for the window and analyses it.
func (r *servedRun) measure(sc scale) (*measured, error) {
	m := &measured{resent: -r.g.resent.Load()}
	length := time.Duration(sc.subs) * sc.sub
	type crashResult struct {
		at    []time.Duration
		ended repro.Traffic
		err   error
	}
	crashed := make(chan crashResult, 1)
	start := time.Now()
	cpu := sampleCPU(start, sc)
	if r.g.w.crash {
		go func() {
			at, ended, err := crasher(r.h.db, r.h.admin, start, crashTimes(sc))
			crashed <- crashResult{at, ended, err}
		}()
	} else {
		crashed <- crashResult{}
	}
	if r.g.w.rate > 0 {
		m.maxLag = r.g.openLoop(start, length)
	} else {
		r.g.closedLoop(start, length)
	}
	recs := make([][]rec, workers)
	var puts int64
	for i, ws := range r.g.ws {
		recs[i] = ws.recs
		for _, r := range ws.recs {
			if r.ok && r.kind == opPut {
				puts++
			}
		}
	}
	m.snapshotSim(r.h.db, puts)
	m.resent += r.g.resent.Load()
	cr := <-crashed
	if cr.err != nil {
		return nil, cr.err
	}
	m.traffic = addTraffic(cr.ended, m.traffic)
	m.win = analyse(recs, sc.subs, sc.sub, r.g.w.limit, nil)
	m.fillCPU(<-cpu)
	m.outages = outages(recs, cr.at)
	return m, nil
}

// measure runs Debit-Credit for the window and analyses it.
func (r *inprocRun) measure(sc scale) (*measured, error) {
	m := &measured{}
	start := time.Now()
	cpu := sampleCPU(start, sc)
	recs, counts, err := r.loop(start, sc, m)
	if err != nil {
		return nil, err
	}
	m.win = analyse([][]rec{recs}, sc.subs, sc.sub, r.limit, counts)
	m.fillCPU(<-cpu)
	return m, nil
}

// print writes what each sub-window measured, and the tail of the whole
// window, for a person reading along.
func (m *measured) print(out io.Writer) {
	fmt.Fprintf(out, "%4s %10s %10s %10s %10s %10s %10s %10s\n",
		"sub", "attempted", "ops/s", "op p50 us", "get p50 us", "put p50 us", "within", "cpu us/op")
	for i, s := range m.win.subs {
		fmt.Fprintf(out, "%4d %10d %10.0f %10.2f %10.2f %10.2f %10.5f %10.3f\n",
			i, s.attempted, s.opsPerS, s.opP50us, s.getP50us, s.putP50us, s.within, s.cpuUsOp)
	}
	fmt.Fprintf(out, "whole window: p90 %.1f us, p99 %.1f us, p99.9 %.1f us, max %.1f us over %d GETs and %d PUTs\n",
		percentile(m.win.lats, 0.90)/1e3, percentile(m.win.lats, 0.99)/1e3,
		percentile(m.win.lats, 0.999)/1e3, percentile(m.win.lats, 1)/1e3, len(m.win.getLats), len(m.win.putLats))
	fmt.Fprintf(out, "sim: %d transactions in %v simulated, %+v\n", m.txns, m.simTime, m.traffic)
	if len(m.outages) > 0 {
		fmt.Fprintf(out, "outages: %v, pacer at most %v late, %d operations sent again\n", m.outages, m.maxLag, m.resent)
	}
}

// runner is a workload set up: it can be measured, checked and closed.
type runner interface {
	setTracer(*tracer)
	measure(scale) (*measured, error)
	// scrape reads the program's own observability after a traced window.
	scrape() (scrape, error)
	// check runs the workload's correctness checks.
	check() error
	close()
}

// setUp prepares w and reports how long that took.
func setUp(w workload, sc scale, seed uint64, traced bool) (runner, time.Duration, error) {
	t0 := time.Now()
	var (
		r   runner
		err error
	)
	if w.served {
		r, err = setUpServed(w, sc, seed, traced)
	} else {
		r, err = setUpInproc(w, sc, seed, traced)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return r, time.Since(t0), nil
}

// peakRSS returns the most resident memory this process has held, in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// report is the outcome of one invocation on one workload: the last line
// of standard output, as JSON.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport starts the report of a run whose correctness checks passed.
func newReport(win window) *report {
	return &report{Correct: true, Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// runEndToEnd measures w with everything the program offers for observing
// it switched off, and reports the end-to-end metrics.
func runEndToEnd(w workload, sc scale, seed uint64) (*report, error) {
	p, setup, err := setUp(w, sc, seed, false)
	if err != nil {
		return nil, err
	}
	defer p.close()
	m, err := p.measure(sc)
	if err != nil {
		return nil, err
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	win := m.win
	if verbose {
		m.print(os.Stderr)
		fmt.Fprintf(os.Stderr, "set-up: %v\n", setup)
	}
	rep := newReport(win)
	rep.set("within_limit_share", "share", win.subMedian(func(s subWindow) float64 { return s.within }))
	rep.set("sim_tps", "1/s", m.simTPS())
	rep.set("san_bytes_per_txn", "B", m.perTxn(m.traffic.Total()))
	rep.set("setup_s", "s", setup.Seconds())
	rep.set("rss_mb", "MB", rss)
	return rep, nil
}
