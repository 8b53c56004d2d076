package replication_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

const sparseDB = 1 << 20

// dbRegion returns node i's database region: -1 is the serving node.
func dbRegion(g *replication.Group, i int) *mem.Region {
	n := g.Primary()
	if i >= 0 {
		n = g.BackupNode(i)
	}
	return n.Space.ByName(vista.RegionDB)
}

// syncRegions returns node i's copies (-1 is the serving node) of the regions
// the group's scheme syncs: the serving node's write-through regions in the
// passive scheme, and the database alone in the active one, whose serving
// node writes through none.
func syncRegions(g *replication.Group, i int) []*mem.Region {
	n := g.Primary()
	if i >= 0 {
		n = g.BackupNode(i)
	}
	var out []*mem.Region
	for _, r := range g.Primary().Space.Regions() {
		if r.WriteThrough || r.Name == vista.RegionDB {
			out = append(out, n.Space.ByName(r.Name))
		}
	}
	return out
}

// writtenBytes is what a full transfer of the synced regions ships: the
// pages the serving node ever wrote.
func writtenBytes(g *replication.Group) int64 {
	var n int64
	for _, r := range syncRegions(g, -1) {
		for p := 0; p < r.Dirty.Pages(); p++ {
			if r.Dirty.Written(p) {
				n += int64(r.Dirty.PageSize())
			}
		}
	}
	return n
}

// checkSparse holds a group to what a transfer that skips never-written
// pages must leave behind: after a quiet moment every in-sync backup's copy
// of every synced region equals the primary's over its whole size, and on
// every node a page its dirty log never marked reads all-zero.
func checkSparse(t *testing.T, g *replication.Group, when string) {
	t.Helper()
	g.Settle(g.QuiesceGrace())
	zero := make([]byte, 4096)
	var want [][]byte
	for _, r := range syncRegions(g, -1) {
		want = append(want, make([]byte, r.Size()))
		r.ReadRaw(0, want[len(want)-1])
	}
	for i := -1; i < g.Backups(); i++ {
		for k, r := range syncRegions(g, i) {
			got := make([]byte, r.Size())
			r.ReadRaw(0, got)
			if i >= 0 && g.BackupState(i) == replication.StateInSync && !bytes.Equal(got, want[k]) {
				t.Fatalf("%s: in-sync backup %d's %s differs from the primary's at byte %d", when, i, r.Name, firstDiff(got, want[k]))
			}
			ps := r.Dirty.PageSize()
			for p := 0; p < r.Dirty.Pages(); p++ {
				if page := got[p*ps : min((p+1)*ps, len(got))]; !r.Dirty.Written(p) && !bytes.Equal(page, zero[:len(page)]) {
					t.Fatalf("%s: node %d's %s page %d was never marked written and is not zero", when, i, r.Name, p)
				}
			}
		}
	}
}

// TestSparseTransferByteExact drives every full transfer there is — a fresh
// join, a fuzzy re-join, the takeover re-sync — through a seeded mix of
// loads, committed and aborted transactions, partitions, backup crashes and
// primary crashes mid-join, on databases that are mostly never-written
// pages, and checks byte equality after every cut-over and every takeover.
func TestSparseTransferByteExact(t *testing.T) {
	for _, mode := range []replication.Mode{replication.Passive, replication.Active} {
		for _, safety := range []replication.Safety{replication.OneSafe, replication.QuorumSafe} {
			t.Run(fmt.Sprintf("%v/%v", mode, safety), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					runSparseScenario(t, mode, safety, seed)
				}
			})
		}
	}
}

func runSparseScenario(t *testing.T, mode replication.Mode, safety replication.Safety, seed int64) {
	t.Helper()
	const k = 3
	g, err := replication.NewGroup(replication.Config{
		Mode:    mode,
		Store:   vista.Config{Version: vista.V3InlineLog, DBSize: sparseDB},
		Backups: k,
		Safety:  safety,
	})
	mustNil(t, err)
	rng := rand.New(rand.NewSource(seed))
	pages := sparseDB / 4096
	// Writes land on a third of the pages, so most of the database stays
	// never-written on every node for the whole run.
	spot := func() int { return rng.Intn(pages/3)*3*4096 + rng.Intn(4096-64) }
	fill := func() []byte {
		b := make([]byte, 64)
		rng.Read(b)
		return b
	}
	txn := func(commit bool) {
		t.Helper()
		tx, err := g.Begin()
		mustNil(t, err)
		for w := 1 + rng.Intn(3); w > 0; w-- {
			off := spot()
			mustNil(t, tx.SetRange(off, 64))
			mustNil(t, tx.Write(off, fill()))
		}
		if commit {
			mustNil(t, tx.Commit())
		} else {
			mustNil(t, tx.Abort())
		}
	}
	traffic := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			switch rng.Intn(8) {
			case 0:
				// Load is out of band: it must not overtake a store still
				// on its way to a backup.
				g.Settle(g.QuiesceGrace())
				mustNil(t, g.Load(spot(), fill()))
			case 1:
				txn(false)
			default:
				txn(true)
			}
		}
	}
	// heal drives the open repair to its cut-over under live traffic.
	heal := func(when string) {
		t.Helper()
		for i := 0; g.RepairStatus().Active; i++ {
			if i > 100000 {
				t.Fatalf("%s: repair never completed: %+v", when, g.RepairStatus())
			}
			traffic(1)
		}
		for i := 0; i < k; i++ {
			if st := g.BackupState(i); st != replication.StateInSync {
				t.Fatalf("%s: backup %d is %v after the repair", when, i, st)
			}
		}
		checkSparse(t, g, when)
	}

	traffic(40)
	for round := 0; round < 6; round++ {
		when := fmt.Sprintf("seed %d round %d", seed, round)
		victim := rng.Intn(k)
		switch rng.Intn(3) {
		case 0: // a partition: delta re-join, or a full one if it lands mid-join
			mustNil(t, g.PauseBackup(victim))
			traffic(1 + rng.Intn(30))
			mustNil(t, g.ResumeBackup(victim))
			mustNil(t, g.RepairAsync())
			if rng.Intn(2) == 0 && g.RepairStatus().Active {
				traffic(1 + rng.Intn(5))
				mustNil(t, g.PauseBackup(victim)) // mid-join: the copy is fuzzy now
				traffic(1 + rng.Intn(10))
				mustNil(t, g.ResumeBackup(victim))
				mustNil(t, g.RepairAsync())
			}
			heal(when + " partition")
		case 1: // a backup whose memory is gone: a fresh node joins
			mustNil(t, g.PowerFailNode(victim))
			mustNil(t, g.RepairAsync())
			heal(when + " fresh join")
		case 2: // the primary dies with a join in flight and its window open
			mustNil(t, g.PowerFailNode(victim))
			mustNil(t, g.RepairAsync())
			traffic(1 + rng.Intn(20))
			mustNil(t, g.Crash())
			_, err := g.Failover()
			mustNil(t, err)
			checkSparse(t, g, when+" takeover")
			mustNil(t, g.RepairAsync())
			heal(when + " join after takeover")
		}
		traffic(rng.Intn(20))
	}
}

// TestSparseTransferZeroesWhatTheSourceNeverWrote builds by hand the cases
// the union with the destination's dirty log exists for: a node holds a page
// carrying a commit the primary never published, the primary dies, and the
// promoted node — which never wrote that page — must leave it zero there too.
// The node is either a fresh joiner that copied the page mid-join (re-synced
// as a survivor by a full transfer) or the old primary itself, re-joining
// from its own memory after the promoted node has reused the lost commit's
// number. The passive old primary's commit never left its write buffers.
func TestSparseTransferZeroesWhatTheSourceNeverWrote(t *testing.T) {
	const lost = 5 * 4096 // a page nothing else writes
	newGroup := func(t *testing.T, mode replication.Mode, batch int) *replication.Group {
		g, err := replication.NewGroup(replication.Config{
			Mode:        mode,
			Store:       vista.Config{Version: vista.V3InlineLog, DBSize: sparseDB},
			Backups:     2,
			CommitBatch: batch, // the active commits below stay in an open batch
		})
		mustNil(t, err)
		for _, p := range []int{0, 2, 7} {
			mustNil(t, g.Load(p*4096, []byte("loaded")))
		}
		return g
	}
	commit := func(t *testing.T, g *replication.Group, val string) {
		tx, err := g.Begin()
		mustNil(t, err)
		mustNil(t, tx.SetRange(lost, 8))
		mustNil(t, tx.Write(lost, []byte(val)))
		mustNil(t, tx.Commit())
	}
	failover := func(t *testing.T, g *replication.Group) {
		mustNil(t, g.Crash())
		_, err := g.Failover()
		mustNil(t, err)
		if g.Committed() != 0 {
			t.Fatalf("the promoted node holds %d commits: the batch was published", g.Committed())
		}
		if dbRegion(g, -1).Dirty.Written(lost / 4096) {
			t.Fatal("the promoted node wrote the page: the rig proves nothing")
		}
	}
	zeroAt := func(t *testing.T, g *replication.Group, i int, who string) {
		got := make([]byte, 8)
		dbRegion(g, i).ReadRaw(lost, got)
		if !bytes.Equal(got, make([]byte, 8)) {
			t.Fatalf("%s kept a dead era's page: %q", who, got)
		}
	}

	t.Run("fresh-joiner", func(t *testing.T) {
		g := newGroup(t, replication.Active, 1024)
		mustNil(t, g.PowerFailNode(1))
		// The page is written before the join opens, so the joiner's plan
		// holds it; every commit here stays in the open batch.
		commit(t, g, "unpubl'd")
		mustNil(t, g.RepairAsync())
		// Each commit's pump pays a little of the copy: stop once the page
		// has reached the joiner, with page 7 still to ship.
		got := make([]byte, 8)
		for n := 0; got[0] == 0; n++ {
			if n == 1000 {
				t.Fatal("the rig never copied the unpublished page to the joiner")
			}
			commit(t, g, "as well.")
			dbRegion(g, 1).ReadRaw(lost, got)
		}
		if st := g.BackupState(1); st != replication.StateSyncing {
			t.Fatalf("joiner is %v, want still syncing", st)
		}
		failover(t, g)
		if g.Backups() != 2 || g.BackupState(0) != replication.StateInSync {
			t.Fatalf("the joiner was not re-synced as a survivor: %d backups, %v", g.Backups(), g.BackupState(0))
		}
		zeroAt(t, g, 0, "the former joiner")
		checkSparse(t, g, "takeover")
	})

	for name, mode := range map[string]replication.Mode{"old-primary": replication.Active, "passive-old-primary": replication.Passive} {
		t.Run(name, func(t *testing.T) {
			g := newGroup(t, mode, 16)
			g.Settle(g.QuiesceGrace())
			commit(t, g, "unpubl'd")
			failover(t, g)
			if g.Backups() != 2 || g.BackupState(1) != replication.StateCrashed {
				t.Fatalf("want a survivor and the old primary kept crashed: %d backups", g.Backups())
			}
			commitSlot(t, g, 0, 1) // the lost commit's number, on another page
			mustNil(t, g.Repair())
			zeroAt(t, g, 1, "the re-joined old primary")
			checkSparse(t, g, "re-join")
		})
	}
}

// TestSparseTransferAfterDirtyGate: a backup partitioned away while the
// primary's last commit had not reached it — its pointer (active) or its
// stores (passive) still in a write buffer, or held back by an open batch —
// holds no stamp for that commit, so it re-joins from the commit before it,
// whose delta names the page it missed. Found by TestSparseTransferByteExact;
// the delta used to leave that commit out.
func TestSparseTransferAfterDirtyGate(t *testing.T) {
	for name, cfg := range map[string]replication.Config{
		"lingering-pointer":        {Mode: replication.Active},
		"open-batch":               {Mode: replication.Active, Safety: replication.QuorumSafe, CommitBatch: 16},
		"passive-lingering-buffer": {Mode: replication.Passive},
		"passive-open-batch":       {Mode: replication.Passive, Safety: replication.QuorumSafe, CommitBatch: 16},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Backups = 3
			cfg.Store = vista.Config{Version: vista.V3InlineLog, DBSize: sparseDB}
			g, err := replication.NewGroup(cfg)
			mustNil(t, err)
			commitSlot(t, g, 0, 1)
			g.Settle(g.QuiesceGrace())
			commitSlot(t, g, 1, 2) // page 0, and not on backup 2 yet
			mustNil(t, g.PauseBackup(2))
			// Another page, out of band: a commit would rewrite the control
			// and undo log pages a passive commit's last stores fall on.
			mustNil(t, g.Load(64*4096, []byte("another page")))
			mustNil(t, g.ResumeBackup(2))
			err = g.Repair()
			mustNil(t, err)
			if st := g.BackupState(2); st != replication.StateInSync {
				t.Fatalf("rejoined backup is %v", st)
			}
			checkSparse(t, g, "rejoin")
		})
	}
}

// TestCopierPaysAsItGoes: the copier charges the link as its budget accrues —
// between two consecutive commits never more than the simulated time between
// them bought — and at the end of a fresh join it has charged exactly its
// plan, which is exactly the pages ever written.
func TestCopierPaysAsItGoes(t *testing.T) {
	g := newGroup(t, replication.Active, 3, replication.QuorumSafe)
	const written = 24
	for p := 0; p < written; p++ {
		mustNil(t, g.Load(p*2*4096, []byte{byte(p + 1)}))
	}
	mustNil(t, g.CrashBackup(2))
	base := g.NetBytes()[mem.CatSync]
	mustNil(t, g.RepairAsync())
	if st := g.RepairStatus(); st.BytesPlanned != written*4096 {
		t.Fatalf("planned %d bytes, want the %d written pages", st.BytesPlanned, written)
	}
	packet := float64(g.Params().MaxPacket)
	sync, now := base, g.Now()
	commits := 0
	for ; g.RepairStatus().Active; commits++ {
		commitSlot(t, g, commits%64, byte(commits)) // page 0: written already
		s, at := g.NetBytes()[mem.CatSync], g.Now()
		// What a pump cannot pay in whole packets it carries: under one.
		if bought := float64(at-now)*g.TransferRate() + packet; float64(s-sync) > bought {
			t.Fatalf("commit %d: %d sync bytes charged in %v, which bought %.0f", commits, s-sync, sim.Dur(at-now), bought)
		}
		sync, now = s, at
	}
	if commits < written {
		t.Fatalf("the join took %d commits: not paid for as it went", commits)
	}
	st := g.RepairStatus()
	if got := g.NetBytes()[mem.CatSync] - base; st.BytesShipped != st.BytesPlanned || got != st.BytesPlanned {
		t.Fatalf("planned %d, shipped %d, %d sync bytes on the link", st.BytesPlanned, st.BytesShipped, got)
	}
	if st := g.BackupState(2); st != replication.StateInSync {
		t.Fatalf("joiner is %v", st)
	}
}

// TestTwoJoinersShareOneBudget: the copier's share of the link is the
// group's, however many joiners draw on it.
func TestTwoJoinersShareOneBudget(t *testing.T) {
	g := newGroup(t, replication.Active, 3, replication.OneSafe)
	mustNil(t, g.Load(0, make([]byte, 1<<20)))
	mustNil(t, g.CrashBackup(1))
	mustNil(t, g.CrashBackup(2))
	base, start := g.NetBytes()[mem.CatSync], g.Now()
	mustNil(t, g.RepairAsync())
	for i := 0; i < 2000; i++ {
		commitSlot(t, g, i%64, byte(i))
	}
	shipped, elapsed := g.NetBytes()[mem.CatSync]-base, g.Now()-start
	if rate := float64(shipped) / float64(elapsed); shipped == 0 || rate > g.TransferRate() {
		t.Fatalf("two joiners shipped %d bytes in %v: %.2f of the group's share", shipped, sim.Dur(elapsed), rate/g.TransferRate())
	}
	if st := g.RepairStatus(); st.Joining != 2 {
		t.Fatalf("%d joins in flight, want 2: %+v", st.Joining, st)
	}
}

// TestCopierWaitsOutAnOpenTransaction: a pump that lands between another
// transaction's Write and its Abort — Settle here, Repair's loop alike — must
// not copy the page the transaction dirtied. On an Active group the abort's
// restore is never streamed and a full transfer's cursor never comes back to
// a page, so the joiner would keep the aborted bytes for good.
func TestCopierWaitsOutAnOpenTransaction(t *testing.T) {
	g, err := replication.NewGroup(replication.Config{
		Mode:    replication.Active,
		Store:   vista.Config{Version: vista.V3InlineLog, DBSize: sparseDB},
		Backups: 2,
	})
	mustNil(t, err)
	const p = 4096 // the page the aborted transaction writes
	mustNil(t, g.Load(p, []byte("committed")))
	for q := 2; q < 40; q++ { // pages that keep the join open past the Settle
		mustNil(t, g.Load(q*4096, []byte{byte(q)}))
	}
	mustNil(t, g.CrashBackup(1))
	mustNil(t, g.RepairAsync())
	tx, err := g.Begin()
	mustNil(t, err)
	mustNil(t, tx.SetRange(p, 9))
	mustNil(t, tx.Write(p, []byte("uncommitd")))
	g.Settle(sim.Millisecond) // banks a few pages' worth of budget
	mustNil(t, tx.Abort())
	mustNil(t, g.Repair())
	want, got := make([]byte, 9), make([]byte, 9)
	dbRegion(g, -1).ReadRaw(p, want)
	dbRegion(g, 1).ReadRaw(p, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("the joiner holds %q where the primary holds %q", got, want)
	}
	checkSparse(t, g, "repair around an aborted transaction")
}

// TestLoadAfterAbort: on a Passive group an abort's restores are doubled
// stores that may still sit in the primary's write buffers when a raw Load of
// the same page follows. Load writes every backup directly, so the buffered
// restores must leave first, or they land on top of the loaded bytes.
func TestLoadAfterAbort(t *testing.T) {
	g, err := replication.NewGroup(replication.Config{
		Mode:  replication.Passive,
		Store: vista.Config{Version: vista.V3InlineLog, DBSize: sparseDB},
	})
	mustNil(t, err)
	const p = 3 * 4096
	tx, err := g.Begin()
	mustNil(t, err)
	mustNil(t, tx.SetRange(p, 8))
	mustNil(t, tx.Write(p, []byte("aborted.")))
	mustNil(t, tx.Abort())
	mustNil(t, g.Load(p, []byte("loaded..")))
	g.Settle(g.QuiesceGrace())
	want, got := make([]byte, 8), make([]byte, 8)
	dbRegion(g, -1).ReadRaw(p, want)
	dbRegion(g, 0).ReadRaw(p, got)
	if string(want) != "loaded.." || !bytes.Equal(got, want) {
		t.Fatalf("the backup holds %q where the primary holds %q", got, want)
	}
}
