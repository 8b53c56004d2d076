package harness

import (
	"fmt"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tpc"
	"repro/internal/vista"
)

// The SMP sweep of Section 8, as in the paper: 1 to smpProcs processors,
// each running one transaction stream over a private smpDBSize database.
const (
	smpProcs  = 4
	smpDBSize = 10 << 20
)

// smpSeries is the protocol grid of the paper's Figures 2 and 3.
var smpSeries = []struct {
	label string
	ver   vista.Version
	mode  replication.Mode
}{
	{"Active", vista.V3InlineLog, replication.Active},
	{"Pass. Ver. 3", vista.V3InlineLog, replication.Passive},
	{"Pass. Ver. 2", vista.V2MirrorDiff, replication.Passive},
	{"Pass. Ver. 1", vista.V1MirrorCopy, replication.Passive},
}

func runFig2(cfg RunConfig) (*Table, error) { return runSMP(cfg, "fig2", benchDC) }
func runFig3(cfg RunConfig) (*Table, error) { return runSMP(cfg, "fig3", benchOE) }

// runSMP reproduces Section 8: N independent transaction streams on one
// SMP primary, each with a 10 MB private database, all replicating through
// one shared Memory Channel. Stream traces are captured in isolation and
// replayed against the shared link (the streams interact only through SAN
// bandwidth, exactly as in the paper's disjoint-data setup).
func runSMP(cfg RunConfig, id, bench string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Aggregate throughput with an SMP primary (%s, txns/sec)", bench),
		Headers: []string{"Processors"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("%d MB database per stream, as in the paper", smpDBSize>>20)),
	}
	for _, s := range smpSeries {
		t.Headers = append(t.Headers, s.label)
	}

	// Capture one trace per (series, stream ordinal); stream k gets its
	// own seed so replays mix distinct access patterns.
	traces := make([][]*sim.Trace, len(smpSeries))
	for i, s := range smpSeries {
		traces[i] = make([]*sim.Trace, smpProcs)
		for k := 0; k < smpProcs; k++ {
			tr, err := captureTrace(cfg, bench, s.ver, s.mode, uint64(k))
			if err != nil {
				return nil, fmt.Errorf("harness: capture %s stream %d: %w", s.label, k, err)
			}
			traces[i][k] = tr
		}
	}

	params := sim.Default()
	for n := 1; n <= smpProcs; n++ {
		row := []string{fmt.Sprintf("%d", n)}
		for i := range smpSeries {
			res := sim.Replay(&params, traces[i][:n])
			row = append(row, f0(res.AggregateTPS()))
		}
		t.Rows = append(t.Rows, row)
	}

	// SAN goodput at the largest configuration — the paper's Section 8
	// observation that the mirroring protocols see "below 20 Mbytes/sec".
	good := fmt.Sprintf("SAN goodput at %d CPUs (MB/s):", smpProcs)
	for i, s := range smpSeries {
		res := sim.Replay(&params, traces[i])
		mbps := float64(res.Link.Bytes) / 1e6 / res.Makespan.Seconds()
		good += fmt.Sprintf(" %s=%.1f", s.label, mbps)
	}
	t.Notes = append(t.Notes, good)
	return t, nil
}

// traceKey identifies a captured stream trace.
type traceKey struct {
	bench string
	ver   vista.Version
	mode  replication.Mode
	txns  int64
	seed  uint64
}

var traceMemo = memo[traceKey, *sim.Trace]{m: map[traceKey]*sim.Trace{}}

// captureTrace runs one stream alone, recording its SAN-interaction trace
// during the measured interval.
func captureTrace(cfg RunConfig, bench string, ver vista.Version, mode replication.Mode, streamSeed uint64) (*sim.Trace, error) {
	txns := benchTxns(cfg, bench) / 4
	if txns < 1000 {
		txns = 1000
	}
	key := traceKey{bench: bench, ver: ver, mode: mode, txns: txns, seed: cfg.Seed + streamSeed}
	return traceMemo.get(key, func() (*sim.Trace, error) {
		pair, err := replication.NewGroup(groupConfig(ver, mode, smpDBSize, nil))
		if err != nil {
			return nil, err
		}
		w, err := newWorkload(bench, smpDBSize)
		if err != nil {
			return nil, err
		}
		trace := &sim.Trace{}
		res, err := tpc.Run(pair, w, tpc.Options{
			Txns:          txns,
			Warmup:        cfg.Warmup,
			Seed:          key.seed,
			StartMeasured: func() { pair.SetTrace(trace) },
		})
		if err != nil {
			return nil, err
		}
		trace.Txns = res.Txns
		return trace, nil
	})
}
