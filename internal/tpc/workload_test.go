package tpc

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/replication"
	"repro/internal/vista"
)

func TestDebitCreditScaling(t *testing.T) {
	cases := []struct {
		dbMB       int
		minAccount int
	}{
		{8, 100},
		{10, 50_000},
		{50, 290_000},
		{100, 600_000},
	}
	for _, c := range cases {
		w, err := NewDebitCredit(c.dbMB << 20)
		if err != nil {
			t.Fatalf("%dMB: %v", c.dbMB, err)
		}
		if w.Accounts() < c.minAccount {
			t.Errorf("%dMB: %d accounts, want >= %d", c.dbMB, w.Accounts(), c.minAccount)
		}
		if w.Tellers() != w.Branches()*10 {
			t.Errorf("%dMB: %d tellers for %d branches", c.dbMB, w.Tellers(), w.Branches())
		}
		if w.DBSize() != c.dbMB<<20 {
			t.Errorf("DBSize() = %d", w.DBSize())
		}
	}
	if _, err := NewDebitCredit(1 << 20); err == nil {
		t.Fatal("1MB database accepted (history alone needs 2MB)")
	}
}

func TestOrderEntryScaling(t *testing.T) {
	for _, mb := range []int{8, 10, 50, 100} {
		w, err := NewOrderEntry(mb << 20)
		if err != nil {
			t.Fatalf("%dMB: %v", mb, err)
		}
		if w.Warehouses() < 1 {
			t.Fatalf("%dMB: no warehouses", mb)
		}
	}
	w50, _ := NewOrderEntry(50 << 20)
	if w50.Warehouses() < 3 {
		t.Fatalf("50MB laid out %d warehouses, want >= 3", w50.Warehouses())
	}
	if _, err := NewOrderEntry(1 << 20); err == nil {
		t.Fatal("1MB database accepted")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range []string{"dc", "oe"} {
		run := func() []byte {
			pair, err := replication.NewGroup(replication.Config{
				Mode:  replication.Standalone,
				Store: vista.Config{Version: vista.V3InlineLog, DBSize: 8 << 20},
			})
			if err != nil {
				t.Fatal(err)
			}
			var w Workload
			if name == "dc" {
				w, err = NewDebitCredit(8 << 20)
			} else {
				w, err = NewOrderEntry(8 << 20)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(pair, w, Options{Txns: 200, Seed: 5}); err != nil {
				t.Fatal(err)
			}
			db := make([]byte, 8<<20)
			pair.Store().ReadRaw(0, db)
			return db
		}
		a, b := run(), run()
		if firstMismatch(a, b) >= 0 {
			t.Fatalf("%s: two identical runs diverged", name)
		}
	}
}

// TestByteProfileShape pins the per-transaction traffic profile that the
// paper's tables depend on: Debit-Credit near 28B modified / 64B undo per
// transaction, Order-Entry with a much larger undo-to-modified ratio.
func TestByteProfileShape(t *testing.T) {
	profile := func(name string) (mod, undo, meta float64) {
		pair, err := replication.NewGroup(replication.Config{
			Mode:  replication.Passive,
			Store: vista.Config{Version: vista.V3InlineLog, DBSize: 16 << 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		var w Workload
		if name == "dc" {
			w, err = NewDebitCredit(16 << 20)
		} else {
			w, err = NewOrderEntry(16 << 20)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(pair, w, Options{Txns: 3000, Warmup: 300, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerTxn(res.Net[mem.CatModified]),
			res.PerTxn(res.Net[mem.CatUndo]),
			res.PerTxn(res.Net[mem.CatMeta])
	}

	mod, undo, _ := profile("dc")
	if mod < 24 || mod > 32 {
		t.Errorf("Debit-Credit modified %.1f B/txn, want ~28 (paper)", mod)
	}
	if undo < 56 || undo > 70 {
		t.Errorf("Debit-Credit undo %.1f B/txn, want ~64 (paper: 65)", undo)
	}

	oMod, oUndo, _ := profile("oe")
	if oUndo/oMod < 2 {
		t.Errorf("Order-Entry undo/modified = %.1f, want conservatively declared ranges (>2)", oUndo/oMod)
	}
	if oUndo < 300 || oUndo > 700 {
		t.Errorf("Order-Entry undo %.1f B/txn, want a few hundred (paper: 437)", oUndo)
	}
}

func TestDriverAbortSchedule(t *testing.T) {
	pair, err := replication.NewGroup(replication.Config{
		Mode:  replication.Standalone,
		Store: vista.Config{Version: vista.V0Vista, DBSize: 8 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewDebitCredit(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pair, w, Options{Txns: 100, Seed: 1, AbortEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != 100 {
		t.Fatalf("committed %d, want 100 (aborts excluded)", res.Txns)
	}
	st := pair.Store().Stats()
	if st.Aborts == 0 {
		t.Fatal("no aborts executed")
	}
	if pair.Store().Committed() != 100 {
		t.Fatalf("store recorded %d commits", pair.Store().Committed())
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	pair, err := replication.NewGroup(replication.Config{
		Mode:  replication.Standalone,
		Store: vista.Config{Version: vista.V3InlineLog, DBSize: 8 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewDebitCredit(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pair, w, Options{Txns: 0}); err == nil {
		t.Fatal("zero transactions accepted")
	}
}

func TestOrderEntryMixCoverage(t *testing.T) {
	// All three transaction types must execute and mutate state.
	pair, err := replication.NewGroup(replication.Config{
		Mode:  replication.Standalone,
		Store: vista.Config{Version: vista.V3InlineLog, DBSize: 16 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewOrderEntry(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Txns: 2000, Seed: 4}
	if _, err := Run(pair, w, opts); err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 16<<20)
	pair.Store().ReadRaw(0, db)
	w2, err := NewOrderEntry(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Replay(w2, opts, opts.Txns)
	if err != nil {
		t.Fatal(err)
	}
	if i := firstMismatch(ref, db); i >= 0 {
		t.Fatalf("database diverges from Replay at offset %d (%#x != %#x)", i, db[i], ref[i])
	}

	// District next-order ids advanced (NewOrder ran), warehouse ytd
	// moved (Payment ran), and some order has a carrier (Delivery ran).
	var next [4]byte
	pair.Store().ReadRaw(w.distOff+distNextOID, next[:])
	if next[0] == 0 && next[1] == 0 && next[2] == 0 && next[3] == 0 {
		// District 0 of warehouse 0 might just be unlucky; scan all.
		found := false
		for d := 0; d < w.warehouses*districtsPerWH; d++ {
			pair.Store().ReadRaw(w.distOff+d*oeDistRec+distNextOID, next[:])
			if next[0]|next[1]|next[2]|next[3] != 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("no NewOrder executed")
		}
	}
}
