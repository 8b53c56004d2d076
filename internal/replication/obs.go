package replication

import (
	"time"

	"repro/internal/obs"
)

// Metric names owned by internal/replication. The latency histograms
// record *simulated* picoseconds (sim.Time, the tier's native unit); the
// occupancy histogram records a dimensionless count. Full catalog with
// units in DESIGN.md §Observability.
const (
	// per-safety-level histogram name prefixes; the registered name has
	// the group's safety suffix ("1safe", "2safe", "quorum") appended.
	MetricCommitLatency = "repl.commit.latency." // sim ps, batch open → ack release
	MetricFlushLatency  = "repl.flush.latency."  // sim ps, seal → ack release

	MetricCommitTxns     = "repl.commit.txns"     // counter: committed transactions flushed
	MetricCommitBatches  = "repl.commit.batches"  // counter: sealed group-commit batches
	MetricBatchOccupancy = "repl.batch.occupancy" // hist: commits per sealed batch
	MetricReadPrimary    = "repl.read.primary"    // counter: reads served by the primary by choice
	MetricReadReplica    = "repl.read.replica"    // counter: reads served by a backup view
	MetricReadFallback   = "repl.read.fallback"   // counter: replica-mode reads that fell back to the primary
	MetricReadRepaired   = "repl.read.repaired"   // counter: laggard views pumped by quorum reads
	MetricBackupLag      = "repl.backup"          // gauge repl.backup<i>.lag: commit seqs behind the primary
	MetricWALTruncated   = "wal.truncate.bytes"   // counter: torn-tail bytes dropped at recovery

	MetricBeatsExchanged = "repl.heartbeat.exchanged" // counter: rounds that shipped a beat and its acks
	MetricBeatsImplied   = "repl.heartbeat.implied"   // counter: rounds a fully acknowledged commit stood for
)

// safetyMetric is the Safety's metric-name suffix (Safety.String uses
// dashes, which metric names forbid).
func safetyMetric(s Safety) string {
	switch s {
	case TwoSafe:
		return "2safe"
	case QuorumSafe:
		return "quorum"
	default:
		return "1safe"
	}
}

// groupObs holds the group's pre-registered instruments. A nil
// *groupObs (no registry in Config.Obs) turns every instrumented site
// into a single predictable branch, leaving the simulated metrics
// bit-for-bit identical to an unobserved group — registration happens
// once at construction, and recording is atomic adds on pointers below,
// so the commit path stays allocation-free either way.
type groupObs struct {
	reg            *obs.Registry
	commitTxns     *obs.Counter
	commitBatches  *obs.Counter
	commitLatency  *obs.Hist
	flushLatency   *obs.Hist
	batchOccupancy *obs.Hist
	readPrimary    *obs.Counter
	readReplica    *obs.Counter
	readFallback   *obs.Counter
	readRepaired   *obs.Counter
	truncBytes     *obs.Counter
	beatsExchanged *obs.Counter
	beatsImplied   *obs.Counter
	backupLag      []*obs.Gauge
}

// newGroupObs registers the group's instrument set on reg (nil reg →
// nil groupObs, the off switch).
func newGroupObs(reg *obs.Registry, cfg Config) *groupObs {
	if reg == nil {
		return nil
	}
	suffix := safetyMetric(cfg.Safety)
	o := &groupObs{
		reg:            reg,
		commitTxns:     reg.Counter(MetricCommitTxns),
		commitBatches:  reg.Counter(MetricCommitBatches),
		commitLatency:  reg.Hist(MetricCommitLatency + suffix),
		flushLatency:   reg.Hist(MetricFlushLatency + suffix),
		batchOccupancy: reg.Hist(MetricBatchOccupancy),
		readPrimary:    reg.Counter(MetricReadPrimary),
		readReplica:    reg.Counter(MetricReadReplica),
		readFallback:   reg.Counter(MetricReadFallback),
		readRepaired:   reg.Counter(MetricReadRepaired),
		truncBytes:     reg.Counter(MetricWALTruncated),
		beatsExchanged: reg.Counter(MetricBeatsExchanged),
		beatsImplied:   reg.Counter(MetricBeatsImplied),
	}
	for i := 0; i < cfg.Backups; i++ {
		o.backupLag = append(o.backupLag, reg.Gauge(backupLagName(i)))
	}
	return o
}

// backupLagName returns "repl.backup<i>.lag" without fmt (construction
// is cold, but keep it simple and allocation-bounded anyway).
func backupLagName(i int) string {
	if i < 10 {
		return MetricBackupLag + string(rune('0'+i)) + ".lag"
	}
	return MetricBackupLag + string(rune('0'+i/10)) + string(rune('0'+i%10)) + ".lag"
}

// emit traces a structured event at the group's current simulated
// instant. Nil-safe; allocation-free (kind must be a constant).
func (g *Group) emit(kind string, node int, a, b uint64) {
	if g.obs == nil {
		return
	}
	g.obs.reg.Emit(kind, int64(g.primary.Clock.Now()), node, a, b)
}

// observeFlush records one sealed batch: its occupancy, the flush's
// simulated cost, the batch's open→release commit latency, and each
// active backup's applied-sequence lag.
func (g *Group) observeFlush(batch int, opened, sealed, released int64) {
	o := g.obs
	o.commitTxns.Add(uint64(batch))
	o.commitBatches.Inc()
	o.batchOccupancy.Record(time.Duration(batch))
	o.flushLatency.Record(time.Duration(released - sealed))
	o.commitLatency.Record(time.Duration(released - opened))
	if g.redo != nil {
		committed := g.store.Committed()
		for i, b := range g.backups {
			if i >= len(o.backupLag) {
				break
			}
			o.backupLag[i].Set(int64(committed) - int64(b.appliedTxns))
		}
	}
}
