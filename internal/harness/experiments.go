package harness

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/memchannel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

func init() {
	register(Experiment{ID: "fig1", Title: "Effective bandwidth vs Memory Channel packet size", Run: runFig1})
	register(Experiment{ID: "table1", Title: "Transaction throughput, straightforward implementation", Run: runTable1})
	register(Experiment{ID: "table2", Title: "Data communicated to the backup, straightforward implementation", Run: runTable2})
	register(Experiment{ID: "table3", Title: "Standalone transaction throughput of the restructured versions", Run: runTable3})
	register(Experiment{ID: "table4", Title: "Primary-backup throughput (passive backup)", Run: runTable4})
	register(Experiment{ID: "table5", Title: "Data transferred to passive backup by version", Run: runTable5})
	register(Experiment{ID: "table6", Title: "Passive vs active backup throughput", Run: runTable6})
	register(Experiment{ID: "table7", Title: "Data transferred: best passive vs active", Run: runTable7})
	register(Experiment{ID: "table8", Title: "Active backup throughput for increasing database sizes", Run: runTable8})
	register(Experiment{ID: "fig2", Title: "SMP primary throughput, Debit-Credit", Run: runFig2})
	register(Experiment{ID: "fig3", Title: "SMP primary throughput, Order-Entry", Run: runFig3})
}

var allVersions = []vista.Version{vista.V0Vista, vista.V1MirrorCopy, vista.V2MirrorDiff, vista.V3InlineLog}

// runFig1 reproduces the stride bandwidth probe of Section 2.3.
func runFig1(cfg RunConfig) (*Table, error) {
	params := sim.Default()
	points, err := memchannel.MeasureBandwidth(&params, 1<<20, []int{4, 8, 16, 32})
	if err != nil {
		return nil, err
	}
	lat, err := memchannel.MeasureLatency(&params)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig1",
		Title:   "Effective bandwidth (MB/s) with different packet sizes",
		Headers: []string{"Packet size", "Bandwidth (MB/s)"},
		Notes: []string{fmt.Sprintf("one-way 4-byte write latency: %.2f us (paper: 3.3 us)",
			lat.Nanoseconds()/1000)},
	}
	for _, pt := range points {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%dbytes", pt.PacketBytes), f1(pt.MBPerSec)})
	}
	return t, nil
}

// runTable1 compares the single-machine server with the straightforward
// write-through port (Version 0 under a passive backup).
func runTable1(cfg RunConfig) (*Table, error) {
	return tpsGrid(cfg, "table1", "Transaction throughput, straightforward implementation (txns/sec)", []gridRow{
		{"Single machine", vista.V0Vista, replication.Standalone},
		{"Primary-backup", vista.V0Vista, replication.Passive},
	})
}

// runTable2 breaks down the straightforward port's SAN traffic.
func runTable2(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Data communicated to the backup, straightforward implementation",
		Headers: []string{"", "Debit-Credit", "Order-Entry"},
		Notes:   append(runNotes(cfg), "values are bytes per transaction (the paper reports run totals in MB; per-transaction figures are count-independent)"),
	}
	byCat := map[mem.Category][]string{}
	totals := []string{"Total data"}
	for _, bench := range []string{benchDC, benchOE} {
		res, err := runCell(cfg, bench, groupConfig(vista.V0Vista, replication.Passive, cfg.DBSize, nil), benchTxns(cfg, bench))
		if err != nil {
			return nil, err
		}
		for c := mem.CatModified; c <= mem.CatMeta; c++ {
			byCat[c] = append(byCat[c], f1(res.PerTxn(res.Net[c])))
		}
		totals = append(totals, f1(res.PerTxn(res.NetTotal())))
	}
	for c := mem.CatModified; c <= mem.CatMeta; c++ {
		t.Rows = append(t.Rows, append([]string{c.String()}, byCat[c]...))
	}
	t.Rows = append(t.Rows, totals)
	return t, nil
}

// runTable3 measures the standalone throughput of all four versions.
func runTable3(cfg RunConfig) (*Table, error) {
	return tpsGrid(cfg, "table3", "Standalone transaction throughput of the restructured versions (txns/sec)",
		versionRows(replication.Standalone))
}

// runTable4 measures the passive primary-backup throughput of all versions.
func runTable4(cfg RunConfig) (*Table, error) {
	return tpsGrid(cfg, "table4", "Primary-backup throughput, passive backup (txns/sec)",
		versionRows(replication.Passive))
}

// runTable5 breaks down passive-backup traffic per version.
func runTable5(cfg RunConfig) (*Table, error) {
	return trafficGrid(cfg, "table5", "Data transferred to passive backup (bytes per transaction)", "Version",
		versionRows(replication.Passive))
}

// bestPassiveVsActive are the rows of Tables 6 and 7: the best passive
// scheme and the active backup, both over Version 3.
var bestPassiveVsActive = []gridRow{
	{"Best Passive (Version 3)", vista.V3InlineLog, replication.Passive},
	{"Active", vista.V3InlineLog, replication.Active},
}

// runTable6 compares the best passive scheme with the active backup.
func runTable6(cfg RunConfig) (*Table, error) {
	return tpsGrid(cfg, "table6", "Passive vs active backup throughput (txns/sec)", bestPassiveVsActive)
}

// runTable7 breaks down traffic for passive V3 versus active.
func runTable7(cfg RunConfig) (*Table, error) {
	return trafficGrid(cfg, "table7", "Data transferred: best passive vs active (bytes per transaction)", "Strategy",
		bestPassiveVsActive)
}

// runTable8 scales the active backup to larger databases.
func runTable8(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "table8",
		Title:   "Throughput for active backup with increasing database sizes (txns/sec)",
		Headers: []string{"Benchmark", "10 MB", "100 MB", "1 GB"},
		Notes:   runNotes(cfg),
	}
	for _, bench := range []string{benchDC, benchOE} {
		cells := []string{bench}
		for _, size := range []int{10 << 20, 100 << 20, 1 << 30} {
			res, err := runCell(cfg, bench, groupConfig(vista.V3InlineLog, replication.Active, size, nil), benchTxns(cfg, bench))
			if err != nil {
				return nil, err
			}
			cells = append(cells, f0(res.TPS))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// gridRow is one configuration of a paper table: its label, the engine
// version and the backup scheme.
type gridRow struct {
	label string
	v     vista.Version
	mode  replication.Mode
}

// versionRows are the four versions under one backup scheme.
func versionRows(mode replication.Mode) []gridRow {
	var rows []gridRow
	for _, v := range allVersions {
		rows = append(rows, gridRow{v.String(), v, mode})
	}
	return rows
}

// tpsGrid is a throughput table: one line per row, one column per
// benchmark.
func tpsGrid(cfg RunConfig, id, title string, rows []gridRow) (*Table, error) {
	t := &Table{ID: id, Title: title, Headers: []string{"", "Debit-Credit", "Order-Entry"}, Notes: runNotes(cfg)}
	for _, r := range rows {
		cells := []string{r.label}
		for _, bench := range []string{benchDC, benchOE} {
			res, err := runCell(cfg, bench, groupConfig(r.v, r.mode, cfg.DBSize, nil), benchTxns(cfg, bench))
			if err != nil {
				return nil, err
			}
			cells = append(cells, f0(res.TPS))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// trafficGrid is a SAN traffic table in bytes per transaction: one line
// per benchmark and row, labelled in the column named col.
func trafficGrid(cfg RunConfig, id, title, col string, rows []gridRow) (*Table, error) {
	t := &Table{ID: id, Title: title, Headers: []string{"Benchmark", col, "Modified", "Undo", "Meta", "Total"}, Notes: runNotes(cfg)}
	for _, bench := range []string{benchDC, benchOE} {
		for _, r := range rows {
			res, err := runCell(cfg, bench, groupConfig(r.v, r.mode, cfg.DBSize, nil), benchTxns(cfg, bench))
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				bench, r.label,
				f1(res.PerTxn(res.Net[mem.CatModified])),
				f1(res.PerTxn(res.Net[mem.CatUndo])),
				f1(res.PerTxn(res.Net[mem.CatMeta])),
				f1(res.PerTxn(res.NetTotal())),
			})
		}
	}
	return t, nil
}

func runNotes(cfg RunConfig) []string {
	return []string{fmt.Sprintf("db=%dMB, dc-txns=%d, oe-txns=%d, warmup=%d, seed=%d",
		cfg.DBSize>>20, cfg.DCTxns, cfg.OETxns, cfg.Warmup, cfg.Seed)}
}
