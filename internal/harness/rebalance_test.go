package harness

import "testing"

// TestRebalanceCellShape: the elastic experiment reports every phase and
// the whole run, transactions keep committing in every grow phase, and
// the run row carries the migration totals and a zero-loss audit.
func TestRebalanceCellShape(t *testing.T) {
	cfg := PinnedRunConfig()
	cfg.DBSize = 8 << 20
	e, ok := Lookup("rebalance")
	if !ok {
		t.Fatal("rebalance not registered")
	}
	tbl, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"baseline", "grow-4", "grow-8", "final", "run"}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("%d rows, want %d: %v", len(tbl.Rows), len(want), tbl.Rows)
	}
	for i, phase := range want {
		if tbl.Rows[i][0] != phase {
			t.Fatalf("row %d phase = %q, want %q", i, tbl.Rows[i][0], phase)
		}
		if worst := cell(t, tbl, i, 3); worst <= 0 {
			t.Errorf("%s worst txn/s = %v, want > 0", phase, worst)
		}
	}
	run := len(want) - 1
	if moved, stamps := cell(t, tbl, run, 5), cell(t, tbl, run, 8); moved <= 0 || stamps <= 0 {
		t.Errorf("run row: %v ranges moved, %v stamps acked, want both > 0", moved, stamps)
	}
	if lost := cell(t, tbl, run, 9); lost != 0 {
		t.Errorf("run row: %v lost acked writes, want 0", lost)
	}
}
