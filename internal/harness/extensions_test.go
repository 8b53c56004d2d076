package harness

import (
	"os"
	"strings"
	"testing"
)

// TestReplDegreeShape: 1-safe throughput does not depend on the backup
// count (one broadcast, no waiting); quorum commit is never slower than
// 2-safe; at K=3 the quorum wait (median backup) strictly beats the
// 2-safe wait (slowest backup).
func TestReplDegreeShape(t *testing.T) {
	cfg := testConfig()
	cfg.DCTxns = 3000
	e, ok := Lookup("repl-degree")
	if !ok {
		t.Fatal("repl-degree not registered")
	}
	tbl, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows, want 3 (K=1..3)", len(tbl.Rows))
	}
	for row := 0; row < 3; row++ {
		one, quorum, two := cell(t, tbl, row, 1), cell(t, tbl, row, 2), cell(t, tbl, row, 3)
		if one <= quorum {
			t.Errorf("K=%d: 1-safe (%v) not above quorum (%v)", row+1, one, quorum)
		}
		if quorum < two {
			t.Errorf("K=%d: quorum (%v) below 2-safe (%v)", row+1, quorum, two)
		}
	}
	// K=3: quorum waits for the median backup, 2-safe for the slowest.
	if q, two := cell(t, tbl, 2, 2), cell(t, tbl, 2, 3); q <= two {
		t.Errorf("K=3: quorum (%v) not strictly above 2-safe (%v)", q, two)
	}
	// 1-safe is flat in K.
	if a, c := cell(t, tbl, 0, 1), cell(t, tbl, 2, 1); a != c {
		t.Errorf("1-safe throughput varies with K: %v vs %v", a, c)
	}
}

// TestShardScalingShape: aggregate throughput grows near-linearly with the
// shard count (independent replica groups on disjoint hardware).
func TestShardScalingShape(t *testing.T) {
	cfg := testConfig()
	cfg.DCTxns = 3000
	e, ok := Lookup("shard-scaling")
	if !ok {
		t.Fatal("shard-scaling not registered")
	}
	tbl, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 { // 1, 2, 4
		t.Fatalf("%d rows, want 3", len(tbl.Rows))
	}
	one := cell(t, tbl, 0, 1)
	four := cell(t, tbl, len(tbl.Rows)-1, 1)
	if four < 3*one {
		t.Errorf("4 shards (%v) not near-linear over 1 shard (%v)", four, one)
	}
	if !strings.HasPrefix(tbl.Rows[0][3], "1.00x") {
		t.Errorf("baseline speedup %q", tbl.Rows[0][3])
	}
}

// TestExtensionsRegistered: Extensions is the one ordered list of pinned
// cells, and every registered experiment that is neither a paper exhibit
// nor an ablation is on it — a cell cannot be registered and then left
// out of `make bench`, `make tables` and TestCellsPinned.
func TestExtensionsRegistered(t *testing.T) {
	want := []string{"repl-degree", "shard-scaling", "group-commit", "availability",
		"chaos", "kv", "readscale", "durability", "rebalance"}
	exts := Extensions()
	if len(exts) != len(want) {
		t.Fatalf("Extensions() = %v", exts)
	}
	listed := map[string]bool{}
	for i, id := range want {
		if exts[i].ID != id {
			t.Fatalf("Extensions()[%d] = %q, want %q", i, exts[i].ID, id)
		}
		listed[id] = true
	}
	for _, e := range append(All(), Ablations()...) {
		listed[e.ID] = true
	}
	for id := range registry {
		if !listed[id] {
			t.Errorf("experiment %q is registered but in no group", id)
		}
	}
}

// TestCellsPinned re-runs every pinned cell at PinnedRunConfig and holds
// the committed BENCH_cells.csv to the result byte for byte, the way
// TestNewSimPinned does for Debit-Credit: simulated time is
// deterministic, so any drifting digit is a behaviour change. Regenerate
// the file with `make bench` when the change is intended.
func TestCellsPinned(t *testing.T) {
	skipShort(t)
	data, err := os.ReadFile("../../BENCH_cells.csv")
	if err != nil {
		t.Fatal(err)
	}
	committed := string(data)
	var all strings.Builder
	for _, e := range Extensions() {
		tbl, err := e.Run(PinnedRunConfig())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got := tbl.CSV()
		all.WriteString(got)
		if !strings.Contains(committed, got) {
			t.Errorf("%s differs from its table in BENCH_cells.csv; this run produced:\n%s", e.ID, got)
		}
	}
	if !t.Failed() && all.String() != committed {
		t.Error("BENCH_cells.csv holds the right tables out of order or with extra content")
	}
}
