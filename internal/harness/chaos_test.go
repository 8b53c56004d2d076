package harness

import (
	"strings"
	"testing"
)

// TestChaosCell regenerates the chaos exhibit and checks its shape: the
// pinned schedule's four faults land as six injections (a
// crash-during-repair is a backup crash plus a primary crash mid-repair),
// one row per detected fault, MTTD within the configured bound, and every
// event eventually restored.
func TestChaosCell(t *testing.T) {
	skipShort(t)
	tbl, err := registry["chaos"].Run(PinnedRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("chaos cell produced %d events, want 6", len(tbl.Rows))
	}
	// MTTD column stays under the suspect-timeout + heartbeat bound the
	// cell configures (250 us).
	for i := range tbl.Rows {
		if mttd := cell(t, tbl, i, 4); mttd <= 0 || mttd > 250 {
			t.Errorf("event %d MTTD %.1f us outside (0, 250]", i, mttd)
		}
		if mttr := cell(t, tbl, i, 7); mttr <= 0 {
			t.Errorf("event %d never restored", i)
		}
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "schedule: 6 seeded injections") && strings.Contains(n, "zero manual Failover/Repair calls") {
			found = true
		}
	}
	if !found {
		t.Errorf("chaos cell notes missing the unattended six-injection statement: %q", tbl.Notes)
	}
}
