package harness

import (
	"strconv"
	"strings"
	"testing"
)

// skipShort drops the heaviest exhibit regenerations under -short (the
// race-detector run multiplies every simulated transaction's cost).
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy exhibit regeneration skipped in -short mode")
	}
}

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tbl, err := e.Run(PinnedRunConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tbl
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "table1", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "fig2", "fig3"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d is %s, want %s (exhibit order)", i, all[i].ID, id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus experiment found")
	}
}

func TestFig1Shape(t *testing.T) {
	tbl := runExp(t, "fig1")
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	prev := 0.0
	for i := range tbl.Rows {
		bw := cell(t, tbl, i, 1)
		if bw <= prev {
			t.Fatalf("bandwidth not increasing with packet size: %v", tbl.Rows)
		}
		prev = bw
	}
	if got := cell(t, tbl, 3, 1); got < 78 || got > 82 {
		t.Fatalf("32-byte bandwidth %.1f, want ~80 (paper)", got)
	}
}

func TestTable1Shape(t *testing.T) {
	skipShort(t)
	tbl := runExp(t, "table1")
	for col := 1; col <= 2; col++ {
		single, pb := cell(t, tbl, 0, col), cell(t, tbl, 1, col)
		if ratio := single / pb; ratio < 2 {
			t.Errorf("%s: straightforward port dropped throughput only %.2fx (paper: 5.6x/2.7x)",
				tbl.Headers[col], ratio)
		}
	}
}

func TestTable2MetadataDominates(t *testing.T) {
	tbl := runExp(t, "table2")
	// Rows: modified, undo, meta, total.
	for col := 1; col <= 2; col++ {
		mod, undo, meta, total := cell(t, tbl, 0, col), cell(t, tbl, 1, col), cell(t, tbl, 2, col), cell(t, tbl, 3, col)
		if meta < mod+undo {
			t.Errorf("col %d: metadata (%.0f) does not dominate data (%.0f) — paper's core Table 2 finding",
				col, meta, mod+undo)
		}
		if diff := total - (mod + undo + meta); diff > 0.5 || diff < -0.5 {
			t.Errorf("col %d: total %.1f != sum %.1f", col, total, mod+undo+meta)
		}
	}
}

func TestTable3StandaloneOrdering(t *testing.T) {
	tbl := runExp(t, "table3")
	// Paper: V3 > V1 > V2 > V0 for both benchmarks.
	for col := 1; col <= 2; col++ {
		v0, v1, v2, v3 := cell(t, tbl, 0, col), cell(t, tbl, 1, col), cell(t, tbl, 2, col), cell(t, tbl, 3, col)
		if !(v3 > v1 && v1 > v2 && v2 > v0) {
			t.Errorf("%s standalone ordering V3>V1>V2>V0 violated: %v/%v/%v/%v",
				tbl.Headers[col], v0, v1, v2, v3)
		}
	}
}

func TestTable4PassiveOrdering(t *testing.T) {
	tbl := runExp(t, "table4")
	// The robust paper claims: V0 collapses; V3 wins Debit-Credit by a
	// clear margin; every restructured version beats V0.
	for col := 1; col <= 2; col++ {
		v0 := cell(t, tbl, 0, col)
		for row := 1; row <= 3; row++ {
			if cell(t, tbl, row, col) < 2*v0 {
				t.Errorf("%s: restructured version row %d not clearly above V0", tbl.Headers[col], row)
			}
		}
	}
	v1, v2, v3 := cell(t, tbl, 1, 1), cell(t, tbl, 2, 1), cell(t, tbl, 3, 1)
	if !(v3 > v1 && v3 > v2) {
		t.Errorf("Debit-Credit passive: V3 (%v) must beat both mirroring versions (%v, %v)", v3, v1, v2)
	}
	if v2 < v1*0.93 {
		t.Errorf("Debit-Credit passive: V2 (%v) far below V1 (%v); paper has V2 >= V1", v2, v1)
	}
}

func TestTable5LoggingShipsMoreThanDiff(t *testing.T) {
	tbl := runExp(t, "table5")
	// Rows: DC x {V0..V3}, OE x {V0..V3}; columns: bench, version,
	// modified, undo, meta, total. The paper's headline: V3's total
	// exceeds V2's, yet V3 wins Table 4.
	for _, base := range []int{0, 4} {
		v2 := cell(t, tbl, base+2, 5)
		v3 := cell(t, tbl, base+3, 5)
		v0 := cell(t, tbl, base+0, 5)
		if v3 <= v2 {
			t.Errorf("rows %d: V3 total (%v) not above V2 (%v)", base, v3, v2)
		}
		if v0 <= v3 {
			t.Errorf("rows %d: V0 total (%v) not the largest", base, v0)
		}
	}
	// V1's metadata is tiny (the set-range array is not replicated).
	if meta := cell(t, tbl, 1, 4); meta > 16 {
		t.Errorf("V1 metadata %.1f B/txn, want <= 16 (paper: 8)", meta)
	}
}

func TestTable6ActiveWins(t *testing.T) {
	tbl := runExp(t, "table6")
	for col := 1; col <= 2; col++ {
		passive, active := cell(t, tbl, 0, col), cell(t, tbl, 1, col)
		if active <= passive {
			t.Errorf("%s: active (%v) does not beat best passive (%v)", tbl.Headers[col], active, passive)
		}
	}
}

func TestTable7ActiveShipsLess(t *testing.T) {
	tbl := runExp(t, "table7")
	for _, base := range []int{0, 2} {
		passive := cell(t, tbl, base, 5)
		active := cell(t, tbl, base+1, 5)
		if active >= passive {
			t.Errorf("rows %d: active total (%v) not below passive (%v)", base, active, passive)
		}
		if undo := cell(t, tbl, base+1, 3); undo != 0 {
			t.Errorf("active ships undo data (%v)", undo)
		}
	}
}

func TestTable8GracefulDegradation(t *testing.T) {
	skipShort(t)
	cfg := PinnedRunConfig()
	cfg.DCTxns, cfg.OETxns = 4000, 1500
	e, _ := Lookup("table8")
	tbl, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 2; row++ {
		small, large := cell(t, tbl, row, 1), cell(t, tbl, row, 3)
		if large >= small {
			t.Errorf("%s: 1GB (%v) not below 10MB (%v)", tbl.Rows[row][0], large, small)
		}
		if large < small*0.5 {
			t.Errorf("%s: degradation %.0f%% is not graceful (paper: 13-22%%)",
				tbl.Rows[row][0], 100*(1-large/small))
		}
	}
}

func TestFig2SMPShape(t *testing.T) {
	skipShort(t)
	tbl := runExp(t, "fig2")
	// Columns: procs, Active, PassV3, PassV2, PassV1. The paper's robust
	// claims at the largest processor count: the active version is far
	// ahead of every passive one; passive logging is not below the
	// mirroring versions (our model has V3 and V2 saturating within a
	// few percent — see EXPERIMENTS.md); V1 trails.
	last := len(tbl.Rows) - 1
	active, v3, v2, v1 := cell(t, tbl, last, 1), cell(t, tbl, last, 2), cell(t, tbl, last, 3), cell(t, tbl, last, 4)
	if active < 1.4*v3 || active < 1.4*v2 {
		t.Errorf("active (%v) not clearly ahead of passives (%v, %v)", active, v3, v2)
	}
	if v3 < 0.97*v2 || v3 <= v1 {
		t.Errorf("passive logging (%v) fell below mirroring (%v, %v)", v3, v2, v1)
	}
	// Active scales: 4 CPUs at least 1.7x one CPU (paper: near-linear).
	if active < 1.7*cell(t, tbl, 0, 1) {
		t.Errorf("active backup does not scale: %v -> %v", cell(t, tbl, 0, 1), active)
	}
	// Passive versions saturate: growth from 2 to 4 CPUs is marginal.
	mid := 1 // row for 2 CPUs
	for col := 2; col <= 4; col++ {
		if cell(t, tbl, last, col) > 1.25*cell(t, tbl, mid, col) {
			t.Errorf("passive column %d kept scaling past 2 CPUs: %v -> %v",
				col, cell(t, tbl, mid, col), cell(t, tbl, last, col))
		}
	}
}

func TestFig3SMPShape(t *testing.T) {
	skipShort(t)
	tbl := runExp(t, "fig3")
	last := len(tbl.Rows) - 1
	active := cell(t, tbl, last, 1)
	for col := 2; col <= 4; col++ {
		if active <= cell(t, tbl, last, col) {
			t.Errorf("Order-Entry: active (%v) not above passive column %d (%v)",
				active, col, cell(t, tbl, last, col))
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Headers: []string{"a", "bee"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	out := tbl.Render()
	for _, want := range []string{"T — demo", "a", "bee", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "# t\na,bee\n1,2\n") {
		t.Errorf("CSV() = %q", csv)
	}
}

func TestAblationShapes(t *testing.T) {
	skipShort(t)
	cfg := PinnedRunConfig()
	cfg.DCTxns = 3000

	// CPU-speed ablation: the write-through slowdown must SHRINK as the
	// processor slows — the paper's Section 9 resolution of the Zhou et
	// al. disagreement.
	e, ok := Lookup("ablation-cpu")
	if !ok {
		t.Fatal("ablation-cpu not registered")
	}
	tbl, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := func(row int) float64 {
		return cell(t, tbl, row, 1) / cell(t, tbl, row, 2)
	}
	if !(slow(0) > slow(1) && slow(1) > slow(2)) {
		t.Fatalf("slowdown not decreasing with CPU speed: %.2f %.2f %.2f",
			slow(0), slow(1), slow(2))
	}
	if slow(2) > 2 {
		t.Fatalf("Pentium-era slowdown %.2fx, want <2x (Zhou et al. regime)", slow(2))
	}

	// Packet-cap ablation: V3 must lose its advantage below the 32-byte
	// full-line packet.
	e, _ = Lookup("ablation-packet")
	tbl, err = e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := len(tbl.Rows) - 1 // 32B row is last
	v3At32 := cell(t, tbl, first, 2) / cell(t, tbl, first, 1)
	v3At4 := cell(t, tbl, 0, 2) / cell(t, tbl, 0, 1)
	if v3At32 <= 1 {
		t.Fatalf("V3 not ahead at 32B packets (%.2fx)", v3At32)
	}
	if v3At4 >= 1 {
		t.Fatalf("V3 still ahead at 4B packets (%.2fx) — the full-line mechanism is broken", v3At4)
	}
}
