package kvserver

import (
	"time"

	"repro/internal/kvwire"
	"repro/internal/obs"
)

// Metric names owned by the serving tier. Server latencies are host wall
// time (real sockets, real syscalls), unlike the replication tier's
// simulated-time histograms; the two never share a histogram.
const (
	// MetricOpLatency is the per-opcode latency prefix; the opcode name
	// ("put", "get", ...) completes it. Wall ns of the one operation's
	// execution, to its encoded response, without the seal of the group
	// it ran in.
	MetricOpLatency = "server.op."
	// MetricWindowOccupancy samples, at each request, the answers its
	// connection holds executed but not yet written: in its write buffer
	// since the last flush, plus those staged ahead of it in its burst
	// (ns-encoded count, like repl.batch.occupancy).
	MetricWindowOccupancy = "server.window.occupancy"
	// MetricBurstFrames, MetricBurstMutations and MetricBurstConns
	// sample, per seal, how many request frames the seal answered across
	// every connection of its group, how many of them were mutations (PUT,
	// DELETE, TXN) — what the deployment's repl.batch.occupancy is made of
	// — and how many connections they came from. Counts, ns-encoded like
	// MetricWindowOccupancy; no time domain.
	MetricBurstFrames    = "server.burst.frames"
	MetricBurstMutations = "server.burst.mutations"
	MetricBurstConns     = "server.burst.conns"
	// MetricConnsOpened / MetricConnsClosed count connection churn.
	MetricConnsOpened = "server.conns.opened"
	MetricConnsClosed = "server.conns.closed"
	// Error-taxonomy counters: one per non-OK wire status class.
	MetricErrNotFound = "server.err.notfound"
	MetricErrRetry    = "server.err.retry"
	MetricErrDegraded = "server.err.degraded"
	MetricErrTerminal = "server.err.terminal"
	MetricErrBad      = "server.err.bad"
	// MetricReopens counts successful heals (failover + Reopen).
	MetricReopens = "server.reopens"
)

// opNames maps wire opcodes to their metric-name component. Index 0 is
// unused (opcodes start at 1).
var opNames = [...]string{
	kvwire.OpPut:     "put",
	kvwire.OpGet:     "get",
	kvwire.OpDelete:  "delete",
	kvwire.OpScan:    "scan",
	kvwire.OpTxn:     "txn",
	kvwire.OpStats:   "stats",
	kvwire.OpPing:    "ping",
	kvwire.OpMetrics: "metrics",
}

// serverObs is the server's attached instrument set. Uninstrumented, it is
// the zero value: every instrument is nil and no-ops, and the serving path
// never reads the wall clock on the instrumentation's behalf.
type serverObs struct {
	reg       *obs.Registry
	opLat     [len(opNames)]*obs.Hist
	badOpLat  *obs.Hist // malformed frames have no decodable opcode
	window    *obs.Hist
	frames    *obs.Hist
	mutations *obs.Hist
	conns     *obs.Hist
	opened    *obs.Counter
	closed    *obs.Counter
	notFound  *obs.Counter
	retry     *obs.Counter
	degraded  *obs.Counter
	terminal  *obs.Counter
	bad       *obs.Counter
	reopenCnt *obs.Counter
}

func newServerObs(reg *obs.Registry) serverObs {
	if reg == nil {
		return serverObs{}
	}
	o := serverObs{
		reg:       reg,
		badOpLat:  reg.Hist(MetricOpLatency + "bad.latency"),
		window:    reg.Hist(MetricWindowOccupancy),
		frames:    reg.Hist(MetricBurstFrames),
		mutations: reg.Hist(MetricBurstMutations),
		conns:     reg.Hist(MetricBurstConns),
		opened:    reg.Counter(MetricConnsOpened),
		closed:    reg.Counter(MetricConnsClosed),
		notFound:  reg.Counter(MetricErrNotFound),
		retry:     reg.Counter(MetricErrRetry),
		degraded:  reg.Counter(MetricErrDegraded),
		terminal:  reg.Counter(MetricErrTerminal),
		bad:       reg.Counter(MetricErrBad),
		reopenCnt: reg.Counter(MetricReopens),
	}
	for op, name := range opNames {
		if name != "" {
			o.opLat[op] = reg.Hist(MetricOpLatency + name + ".latency")
		}
	}
	return o
}

// clock starts one request's execution time: the wall clock, read only
// when instrumented.
func (o *serverObs) clock() time.Time {
	if o.reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeOp records one executed request: its execution since start under
// its opcode's histogram (the bad-frame histogram when the opcode never
// decoded) and the answers its connection held unsent.
func (o *serverObs) observeOp(op byte, start time.Time, unsent int) {
	if o.reg == nil {
		return
	}
	h := o.badOpLat
	if int(op) < len(o.opLat) && o.opLat[op] != nil {
		h = o.opLat[op]
	}
	h.Record(time.Since(start))
	o.window.Record(time.Duration(unsent))
}

// observeBurst records one seal's shape.
func (o *serverObs) observeBurst(frames, mutations, conns int) {
	o.frames.Record(time.Duration(frames))
	o.mutations.Record(time.Duration(mutations))
	o.conns.Record(time.Duration(conns))
}

// emit lands one serving-tier event in the ring (host wall time domain).
func (o *serverObs) emit(kind string, node int, a, b uint64) {
	if o.reg != nil {
		o.reg.Emit(kind, time.Now().UnixNano(), node, a, b)
	}
}
