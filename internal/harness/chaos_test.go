package harness

import (
	"strings"
	"testing"
)

// TestChaosCell regenerates the chaos exhibit at a reduced scale and
// checks its shape: one row per detected fault, MTTD within the
// configured bound, and every event eventually restored.
func TestChaosCell(t *testing.T) {
	skipShort(t)
	cfg := testConfig()
	cfg.ChaosEvents = 2
	tbl, err := registry["chaos"].Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("chaos cell produced no events")
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
		if strings.Contains(n, "zero manual Failover/Repair calls") {
			found = true
		}
	}
	if !found {
		t.Error("chaos cell notes missing the unattended statement")
	}
}
