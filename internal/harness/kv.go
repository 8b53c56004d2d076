package harness

import (
	"fmt"

	"repro"
	"repro/internal/tpc"
)

// The kv experiment exercises the redesigned API stack end to end: the
// typed key-value layer (repro/kv) laid out inside the replicated bytes,
// driven by the YCSB-style mixes of tpc.RunKV — and, because the driver
// sees only the DB interface, the same cell runs over one shard and four.
// The per-row comparison is the point: both serve the identical typed
// workload, and the four-shard rows pay the kv layer's two-phase
// record-then-flip commit in exchange for torn-write safety across shard
// boundaries.
func init() {
	register(Experiment{
		ID:    "kv",
		Title: "Replicated key-value store: YCSB-style mixes over the DB interface",
		Run:   runKV,
	})
}

func runKV(cfg RunConfig) (*Table, error) {
	const db = 4 << 20
	backups := cfg.Backups
	if backups < 1 {
		backups = 2
	}
	ops := cfg.KVOps
	if ops <= 0 {
		ops = 2_000
	}
	records := cfg.KVRecords
	if records <= 0 {
		records = 2_000
	}
	warm := ops / 10

	t := &Table{
		ID:      "kv",
		Title:   "Key-value YCSB-style mixes (kv layer over repro.DB)",
		Headers: []string{"Deployment", "Mix", "ops/s", "Reads", "Updates", "Inserts", "Scans", "SAN B/op"},
		Notes: append(runNotes(cfg),
			fmt.Sprintf("active backup, K=%d, %s commit, %d MB database, %d records preloaded, %d measured ops per cell",
				backups, cfg.Safety, db>>20, records, ops),
			"read-heavy = 95/5 read/update (YCSB-B), update-heavy = 50/50 (YCSB-A), scan = 95/5 scan/insert (YCSB-E)",
			"one driver, one storage abstraction: the sharded rows run the identical code path through repro.DB"),
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
			cfgc := repro.Config{
				Version: repro.V3InlineLog,
				Backup:  repro.ActiveBackup,
				DBSize:  db,
				Backups: backups,
				Safety:  repro.Safety(cfg.Safety),
			}
			dep, err := repro.NewSharded(cfgc, d.shards)
			if err != nil {
				return nil, err
			}
			res, err := tpc.RunKV(dep, tpc.KVOptions{
				Mix: mix, Records: records, Ops: ops, Warmup: warm, Seed: cfg.Seed,
				ScanLen: cfg.KVScanLen,
			})
			if err != nil {
				return nil, fmt.Errorf("harness: kv %s/%s: %w", d.name, mix, err)
			}
			t.Rows = append(t.Rows, []string{
				d.name,
				mix,
				f0(res.OPS),
				fmt.Sprintf("%d", res.Reads),
				fmt.Sprintf("%d", res.Updates),
				fmt.Sprintf("%d", res.Inserts),
				fmt.Sprintf("%d", res.Scans),
				f1(res.BytesPerOp()),
			})
		}
	}
	return t, nil
}
