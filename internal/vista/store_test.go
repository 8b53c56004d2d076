package vista

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/rio"
	"repro/internal/sim"
)

// allVersions spans every engine design for table-driven tests.
var allVersions = []Version{V0Vista, V1MirrorCopy, V2MirrorDiff, V3InlineLog}

// newTestStore builds a standalone store plus its reliable memory (for
// recovery tests) over a fresh address space.
func newTestStore(t *testing.T, cfg Config) (*Store, *rio.Memory, *mem.Accessor) {
	t.Helper()
	p := sim.Default()
	clk := &sim.Clock{}
	sp := mem.NewSpace()
	acc := mem.NewAccessor(&p, clk, cache.New(&p, clk), sp)
	rm := rio.New(sp)

	specs, err := Layout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceRegions(sp, specs, 8<<20); err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg, acc, rm)
	if err != nil {
		t.Fatal(err)
	}
	return s, rm, acc
}

func TestVersionStrings(t *testing.T) {
	want := map[Version]string{
		V0Vista:      "Version 0 (Vista)",
		V1MirrorCopy: "Version 1 (Mirror by Copy)",
		V2MirrorDiff: "Version 2 (Mirror by Diff)",
		V3InlineLog:  "Version 3 (Improved Log)",
	}
	for v, w := range want {
		if v.String() != w {
			t.Errorf("%d.String() = %q", int(v), v.String())
		}
	}
	if Version(9).Valid() || !V3InlineLog.Valid() {
		t.Fatal("Valid() wrong")
	}
}

func TestLayoutPerVersion(t *testing.T) {
	cases := []struct {
		v    Version
		want []string
	}{
		{V0Vista, []string{RegionControl, RegionDB, RegionHeap}},
		{V1MirrorCopy, []string{RegionControl, RegionDB, RegionMirror, RegionSRArray}},
		{V2MirrorDiff, []string{RegionControl, RegionDB, RegionMirror, RegionSRArray}},
		{V3InlineLog, []string{RegionControl, RegionDB, RegionUndoLog}},
	}
	for _, c := range cases {
		specs, err := Layout(Config{Version: c.v, DBSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != len(c.want) {
			t.Fatalf("%s: %d regions, want %d", c.v, len(specs), len(c.want))
		}
		for i, name := range c.want {
			if specs[i].Name != name {
				t.Errorf("%s region %d = %s, want %s", c.v, i, specs[i].Name, name)
			}
		}
	}
	// The set-range array is the one deliberately non-replicated region.
	specs, _ := Layout(Config{Version: V1MirrorCopy, DBSize: 1 << 20})
	for _, sp := range specs {
		if sp.Name == RegionSRArray && sp.Replicated {
			t.Fatal("set-range array marked replicated")
		}
		if sp.Name != RegionSRArray && !sp.Replicated {
			t.Fatalf("region %s not replicated", sp.Name)
		}
	}
}

func TestLayoutRejectsBadConfig(t *testing.T) {
	if _, err := Layout(Config{Version: Version(7), DBSize: 1024}); err == nil {
		t.Fatal("invalid version accepted")
	}
	if _, err := Layout(Config{Version: V0Vista, DBSize: 0}); err == nil {
		t.Fatal("zero database accepted")
	}
}

func TestAPIMisuse(t *testing.T) {
	s, _, _ := newTestStore(t, Config{Version: V3InlineLog, DBSize: 1 << 16})

	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin(); !errors.Is(err, ErrTxActive) {
		t.Fatalf("second Begin: %v", err)
	}
	if err := tx.SetRange(-1, 8); !errors.Is(err, ErrBounds) {
		t.Fatalf("negative SetRange: %v", err)
	}
	if err := tx.SetRange(1<<16-4, 8); !errors.Is(err, ErrBounds) {
		t.Fatalf("overrunning SetRange: %v", err)
	}
	if err := tx.SetRange(0, 0); !errors.Is(err, ErrBounds) {
		t.Fatalf("empty SetRange: %v", err)
	}
	if err := tx.Write(128, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("undeclared Write: %v", err)
	}
	if err := tx.SetRange(128, 16); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(136, make([]byte, 9)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Write overrunning the range: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double Commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Abort after Commit: %v", err)
	}
}

func TestCrashedStoreRefusesWork(t *testing.T) {
	s, _, _ := newTestStore(t, Config{Version: V0Vista, DBSize: 1 << 16})
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	s.MarkCrashed()
	if err := tx.Commit(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("commit on crashed store: %v", err)
	}
	if _, err := s.Begin(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("begin on crashed store: %v", err)
	}
	if err := s.Read(0, make([]byte, 1)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read on crashed store: %v", err)
	}
}

func TestCommitAppliesAbortRestores(t *testing.T) {
	for _, v := range allVersions {
		t.Run(v.String(), func(t *testing.T) {
			s, _, _ := newTestStore(t, Config{Version: v, DBSize: 1 << 16})
			if err := s.Load(100, []byte("original-data")); err != nil {
				t.Fatal(err)
			}

			// Commit persists.
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(100, 16))
			must(t, tx.Write(100, []byte("committed-data")))
			must(t, tx.Commit())

			got := make([]byte, 14)
			s.ReadRaw(100, got)
			if string(got) != "committed-data" {
				t.Fatalf("after commit: %q", got)
			}
			if s.Committed() != 1 {
				t.Fatalf("Committed() = %d", s.Committed())
			}

			// Abort restores.
			tx, err = s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(100, 16))
			must(t, tx.Write(100, []byte("doomed-write!!")))
			must(t, tx.Abort())

			s.ReadRaw(100, got)
			if string(got) != "committed-data" {
				t.Fatalf("after abort: %q", got)
			}
			if s.Committed() != 1 {
				t.Fatalf("abort bumped Committed() to %d", s.Committed())
			}
			st := s.Stats()
			if st.Begins != 2 || st.Commits != 1 || st.Aborts != 1 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

func TestOverlappingSetRangesAbort(t *testing.T) {
	// Two overlapping set_ranges in one transaction: undo must restore
	// the ORIGINAL bytes, not the intermediate ones.
	for _, v := range allVersions {
		t.Run(v.String(), func(t *testing.T) {
			s, _, _ := newTestStore(t, Config{Version: v, DBSize: 1 << 16})
			must(t, s.Load(0, []byte("AAAAAAAAAAAAAAAA")))

			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(0, 16))
			must(t, tx.Write(0, []byte("BBBBBBBBBBBBBBBB")))
			must(t, tx.SetRange(8, 8)) // captures B's as before-image
			must(t, tx.Write(8, []byte("CCCCCCCC")))
			must(t, tx.Abort())

			got := make([]byte, 16)
			s.ReadRaw(0, got)
			if string(got) != "AAAAAAAAAAAAAAAA" {
				t.Fatalf("overlapping abort left %q", got)
			}
		})
	}
}

// An abort leaves the committed count where it was, so the next transaction
// carries the same id: an undo that runs later — an empty transaction's
// abort, or recovery with nothing or something shorter in flight — must not
// reach the aborted transaction's records again and put their before-images
// over bytes installed since.
func TestAbortedUndoIsNotReplayed(t *testing.T) {
	for _, v := range allVersions {
		for _, later := range []string{"empty abort", "recovery", "recovery of a shorter transaction"} {
			t.Run(v.String()+"/"+later, func(t *testing.T) {
				cfg := Config{Version: v, DBSize: 1 << 16}
				s, rm, acc := newTestStore(t, cfg)
				tx, err := s.Begin()
				must(t, err)
				must(t, tx.SetRange(0, 8))
				must(t, tx.Write(0, []byte("AAAAAAAA")))
				must(t, tx.SetRange(64, 8))
				must(t, tx.Write(64, []byte("AAAAAAAA")))
				must(t, tx.Abort())
				must(t, s.Load(0, []byte("BBBBBBBB")))
				must(t, s.Load(64, []byte("BBBBBBBB")))

				switch later {
				case "empty abort":
					tx, err = s.Begin()
					must(t, err)
					must(t, tx.Abort())
				case "recovery of a shorter transaction":
					tx, err = s.Begin()
					must(t, err)
					must(t, tx.SetRange(128, 8))
					must(t, tx.Write(128, []byte("CCCCCCCC")))
					fallthrough
				case "recovery":
					if s, err = Recover(cfg, acc, rm, RecoverLocal); err != nil {
						t.Fatal(err)
					}
				}
				got := make([]byte, 136)
				s.ReadRaw(0, got)
				want := make([]byte, 136)
				copy(want, "BBBBBBBB")
				copy(want[64:], "BBBBBBBB")
				if !bytes.Equal(got, want) {
					t.Fatalf("a later undo replayed the aborted transaction: %q / %q / %q", got[:8], got[64:72], got[128:])
				}
			})
		}
	}
}

func TestLocalRecoveryRollsBackInFlight(t *testing.T) {
	// Simulate a Rio reboot: the store object dies mid-transaction, a
	// new one recovers over the same reliable memory.
	for _, v := range allVersions {
		t.Run(v.String(), func(t *testing.T) {
			s, rm, acc := newTestStore(t, Config{Version: v, DBSize: 1 << 16})
			must(t, s.Load(0, []byte("stable-state----")))

			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(0, 16))
			must(t, tx.Write(0, []byte("torn-in-flight--")))
			// Crash here: the Store value is abandoned.

			s2, err := Recover(Config{Version: v, DBSize: 1 << 16}, acc, rm, RecoverLocal)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 16)
			s2.ReadRaw(0, got)
			if string(got) != "stable-state----" {
				t.Fatalf("recovery left %q", got)
			}
			// The recovered store serves new transactions.
			tx, err = s2.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(32, 8))
			must(t, tx.Write(32, []byte("newlife!")))
			must(t, tx.Commit())
		})
	}
}

func TestRecoveryAfterCleanCommitIsNoop(t *testing.T) {
	for _, v := range allVersions {
		t.Run(v.String(), func(t *testing.T) {
			s, rm, acc := newTestStore(t, Config{Version: v, DBSize: 1 << 16})
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			must(t, tx.SetRange(0, 8))
			must(t, tx.Write(0, []byte("settled!")))
			must(t, tx.Commit())

			s2, err := Recover(Config{Version: v, DBSize: 1 << 16}, acc, rm, RecoverLocal)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 8)
			s2.ReadRaw(0, got)
			if string(got) != "settled!" {
				t.Fatalf("recovery disturbed committed state: %q", got)
			}
			if s2.Committed() != 1 {
				t.Fatalf("Committed() = %d after recovery", s2.Committed())
			}
		})
	}
}

func TestResourceExhaustion(t *testing.T) {
	t.Run("v3 log full", func(t *testing.T) {
		s, _, _ := newTestStore(t, Config{Version: V3InlineLog, DBSize: 1 << 20, LogSize: 4096})
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		var last error
		for i := 0; i < 100 && last == nil; i++ {
			last = tx.SetRange(i*512, 512)
		}
		if last == nil {
			t.Fatal("4KB undo log absorbed 50KB of ranges")
		}
	})
	t.Run("mirror srarray full", func(t *testing.T) {
		s, _, _ := newTestStore(t, Config{Version: V1MirrorCopy, DBSize: 1 << 20, SRMax: 4})
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			must(t, tx.SetRange(i*64, 16))
		}
		if err := tx.SetRange(512, 16); err == nil {
			t.Fatal("set-range array overflow accepted")
		}
	})
	t.Run("v0 heap exhausted", func(t *testing.T) {
		s, _, _ := newTestStore(t, Config{Version: V0Vista, DBSize: 1 << 20, HeapSize: 2048})
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		var last error
		for i := 0; i < 100 && last == nil; i++ {
			last = tx.SetRange(i*600, 600)
		}
		if last == nil {
			t.Fatal("2KB heap absorbed 60KB of undo areas")
		}
	})
}

func TestV3OversizedRangeSplits(t *testing.T) {
	s, _, _ := newTestStore(t, Config{Version: V3InlineLog, DBSize: 1 << 20, LogSize: 1 << 20})
	big := 80_000 // exceeds the 16-bit record length
	payload := bytes.Repeat([]byte{0xAB}, big)
	must(t, s.Load(0, bytes.Repeat([]byte{0x11}, big)))

	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	must(t, tx.SetRange(0, big))
	must(t, tx.Write(0, payload))
	must(t, tx.Abort())

	got := make([]byte, big)
	s.ReadRaw(0, got)
	if !bytes.Equal(got, bytes.Repeat([]byte{0x11}, big)) {
		t.Fatal("oversized-range abort did not restore")
	}
}

// TestRandomOpsMatchModel drives every engine with a random mix of
// committed and aborted transactions and compares the database against a
// plain shadow model after each transaction.
func TestRandomOpsMatchModel(t *testing.T) {
	const dbSize = 1 << 16
	for _, v := range allVersions {
		t.Run(v.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				s, _, _ := newTestStore(t, Config{Version: v, DBSize: dbSize})
				model := make([]byte, dbSize)
				r := rand.New(rand.NewPCG(seed, uint64(v)))

				for i := 0; i < 150; i++ {
					tx, err := s.Begin()
					if err != nil {
						t.Fatal(err)
					}
					type write struct {
						off int
						buf []byte
					}
					var staged []write
					nRanges := 1 + r.IntN(4)
					for j := 0; j < nRanges; j++ {
						off := r.IntN(dbSize - 256)
						n := 8 * (1 + r.IntN(16))
						must(t, tx.SetRange(off, n))
						wn := 1 + r.IntN(n)
						buf := make([]byte, wn)
						for k := range buf {
							buf[k] = byte(r.Uint32())
						}
						woff := off + r.IntN(n-wn+1)
						must(t, tx.Write(woff, buf))
						staged = append(staged, write{off: woff, buf: buf})
					}
					if r.IntN(4) == 0 {
						must(t, tx.Abort())
					} else {
						must(t, tx.Commit())
						for _, w := range staged {
							copy(model[w.off:], w.buf)
						}
					}
					db := make([]byte, dbSize)
					s.ReadRaw(0, db)
					if !bytes.Equal(db, model) {
						t.Fatalf("seed %d: txn %d diverged from model", seed, i)
					}
				}
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
