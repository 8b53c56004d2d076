package main

import (
	"fmt"
	"time"

	"repro"
)

// workload is one named set of inputs. BENCHMARK.json and README.md say
// why each exists; the fields here are what the program needs to run it.
type workload struct {
	name   string
	served bool // false: Debit-Credit in process, no kv and no wire
	shards int  // 1: repro.New; more: repro.NewSharded
	dbMiB  int
	keys   int
	getPct int
	zipf   bool // Zipf(0.99) keys instead of uniform
	// rate, when positive, makes the loop open: operations fall due at this
	// many per second whether or not earlier ones have finished.
	rate  int
	crash bool // crash the primary once per sub-window
	// limit is the latency an operation must finish within to count in
	// within_limit_share.
	limit time.Duration
}

var workloads = []workload{
	{name: "inproc-debitcredit", dbMiB: 64, limit: 250 * time.Microsecond},
	{name: "served-mixed", served: true, shards: 1, dbMiB: 64, keys: 100_000, getPct: 50, limit: time.Millisecond},
	{name: "served-readmost", served: true, shards: 4, dbMiB: 64, keys: 100_000, getPct: 95, zipf: true, limit: time.Millisecond},
	{name: "served-crash", served: true, shards: 1, dbMiB: 32, keys: 50_000, getPct: 50, rate: 20_000, crash: true, limit: 25 * time.Millisecond},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scale sizes a run. The full scale is fixed by -seconds; -smoke shrinks
// everything so the tests can run every workload in a few seconds.
type scale struct {
	subs   int           // sub-windows in the measured window
	sub    time.Duration // length of one
	warmup int           // warm-up operations, a count and not a time
	// simTxns is how many Debit-Credit transactions after the warm-up the
	// sim-domain metrics of inproc-debitcredit cover: a quarter of what the
	// slowest window seen ran, and a whole number of commit batches.
	simTxns int64
	smoke   bool
}

// subWindowTarget is the sub-window length a run aims for: long enough that
// a sub-window of the slowest workload holds 100 000 operations.
const subWindowTarget = 5 * time.Second

func newScale(seconds float64, smoke bool) scale {
	total := time.Duration(seconds * float64(time.Second))
	n := int(total / subWindowTarget)
	if n < 3 {
		n = 3
	}
	sc := scale{subs: n, sub: total / time.Duration(n), warmup: 200_000, simTxns: 640_000, smoke: smoke}
	if smoke {
		sc.warmup, sc.simTxns = 2000, 6400
	}
	return sc
}

// sized returns w at this scale.
func (sc scale) sized(w workload) workload {
	if sc.smoke {
		w.dbMiB = 8
		if w.served {
			w.keys = 2000
		}
	}
	return w
}

// deployment is the configuration every workload shares: the paper's best
// engine under active backup, three backups, quorum commit, no disk tier.
func deployment(w workload, metrics bool) repro.Config {
	cfg := repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  w.dbMiB << 20,
		Backups: 3,
		Safety:  repro.QuorumSafe,
		Metrics: metrics,
	}
	if w.served {
		cfg.Autopilot = repro.AutopilotConfig{
			HeartbeatPeriod: 200 * time.Microsecond,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          8,
		}
	} else {
		cfg.CommitBatch = commitBatch
	}
	return cfg
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
