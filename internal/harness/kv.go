package harness

import (
	"fmt"

	"repro"
	"repro/internal/tpc"
)

// The kv experiment exercises the redesigned API stack end to end: the
// typed key-value layer (repro/kv) laid out inside the replicated bytes,
// driven by the YCSB-style mixes of tpc.RunKV — and, because kv sees only
// the DB interface, the same cell runs over one shard and four.
// The per-row comparison is the point: both serve the identical typed
// workload, every mutation one transaction on the shard its key's region
// lives on, so the four-shard rows are four commit streams side by side.
// Every read is audited against the session's latest write, whichever
// node served it, and a stale one fails the cell.
func init() {
	register(Experiment{
		ID:    "kv",
		Title: "Replicated key-value store: YCSB-style mixes over the DB interface",
		Run:   runKV,
	})
}

// The kv and readscale cells' keyspace: the records tpc.RunKV preloads and
// the measured operations per row.
const (
	kvRecords = 2_000
	kvOps     = 2_000
)

// runKV drives each mix over a 1-safe active-scheme deployment with two
// backups, on one shard and on four.
func runKV(cfg RunConfig) (*Table, error) {
	const (
		db      = 4 << 20
		backups = 2
		warm    = kvOps / 10
	)

	t := &Table{
		ID:      "kv",
		Title:   "Key-value YCSB-style mixes (kv layer over repro.DB)",
		Headers: []string{"Deployment", "Mix", "ops/s", "Reads", "Updates", "Inserts", "Scans", "SAN B/op"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("active backup, K=%d, 1-safe commit, %d MB database, %d records preloaded, %d measured ops per cell",
				backups, db>>20, kvRecords, kvOps),
			"read-heavy = 95/5 read/update (YCSB-B), update-heavy = 50/50 (YCSB-A), scan = 95/5 scan/insert (YCSB-E)",
			"one driver, one storage abstraction: the sharded rows run the identical code path through repro.DB",
			"burst-k = value updates through kv.Burst, k PUTs per seal, always at quorum commit (Updates counts the PUTs; SAN B/op is per PUT)"),
	}
	deployments := []struct {
		name   string
		shards int
	}{
		{"cluster", 1},
		{"sharded-4", 4},
	}
	for _, d := range deployments {
		for _, mix := range tpc.KVMixes() {
			dep, err := repro.NewSharded(kvConfig(db, backups, repro.OneSafe), d.shards)
			if err != nil {
				return nil, err
			}
			res, err := tpc.RunKV(dep, tpc.KVOptions{
				Mix: mix, Ops: kvOps, Warmup: warm, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("harness: kv %s/%s: %w", d.name, mix, err)
			}
			if res.StaleViolations != 0 {
				return nil, fmt.Errorf("harness: kv %s/%s: %d stale-read violations", d.name, mix, res.StaleViolations)
			}
			t.Rows = append(t.Rows, kvRow(d.name, res))
		}
	}
	// The burst rows: the store under acknowledgement deferral, k PUTs per
	// seal — the sim-domain half of what kvserver's pipelined bursts buy,
	// pinned here because the served figure itself depends on how frames
	// happen to arrive. They run at quorum commit, not the cell's 1-safe:
	// the wait a burst defers is the acknowledgement's, and 1-safe has none.
	// On four shards a burst's seal covers every shard it touched.
	for _, d := range []struct {
		name   string
		shards int
		ks     []int
	}{{"cluster-quorum", 1, []int{1, 2, 4, 8, 16}}, {"sharded4-quorum", 4, []int{1, 16}}} {
		for _, k := range d.ks {
			dep, err := repro.NewSharded(kvConfig(db, backups, repro.QuorumSafe), d.shards)
			if err != nil {
				return nil, err
			}
			res, err := tpc.RunKVBurst(dep, tpc.KVOptions{Ops: kvOps, Warmup: warm, Seed: cfg.Seed}, k)
			if err != nil {
				return nil, fmt.Errorf("harness: kv %s/burst-%d: %w", d.name, k, err)
			}
			t.Rows = append(t.Rows, kvRow(d.name, res))
		}
	}
	return t, nil
}

// kvConfig is the cell's deployment: active backup, K backups, a 4 MB
// database.
func kvConfig(db, backups int, safety repro.Safety) repro.Config {
	return repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  db,
		Backups: backups,
		Safety:  safety,
	}
}

func kvRow(deployment string, res tpc.KVResult) []string {
	return []string{
		deployment,
		res.Mix,
		f0(res.OPS),
		fmt.Sprintf("%d", res.Reads),
		fmt.Sprintf("%d", res.Updates),
		fmt.Sprintf("%d", res.Inserts),
		fmt.Sprintf("%d", res.Scans),
		f1(res.BytesPerOp()),
	}
}
