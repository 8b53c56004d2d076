package kv_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/kv"
)

// crashDB is a deployment that counts kv's calls into it — Begin and
// DeferAcks, and its transactions' SetRange, Write, Read, Commit and Abort
// — and crashes one shard's primary before the call numbered at or, when
// at is the history's call count, right after the last call returns: for a
// burst, the instant between its commit and its scope's seal.
type crashDB struct {
	*repro.Cluster
	calls, at, total int // at -1: never
	commits          int // Commit calls
	shard            int
	crashed          bool
	err              error // the crash's own failure
}

func (d *crashDB) crash() {
	d.crashed = true
	d.err = d.Shard(d.shard).CrashPrimary()
}

func (d *crashDB) before() {
	if d.calls == d.at && !d.crashed {
		d.crash()
	}
	d.calls++
}

func (d *crashDB) after() {
	if d.at == d.total && d.calls == d.total && !d.crashed {
		d.crash()
	}
}

// call runs one counted call.
func (d *crashDB) call(f func() error) error {
	d.before()
	defer d.after()
	return f()
}

func (d *crashDB) Begin() (repro.Tx, error) {
	d.before()
	defer d.after()
	tx, err := d.Cluster.Begin()
	if err != nil {
		return nil, err
	}
	return crashTx{tx, d}, nil
}

func (d *crashDB) DeferAcks() repro.AckScope {
	d.before()
	defer d.after()
	return d.Cluster.DeferAcks()
}

type crashTx struct {
	tx repro.Tx
	d  *crashDB
}

func (t crashTx) SetRange(off, n int) error {
	return t.d.call(func() error { return t.tx.SetRange(off, n) })
}

func (t crashTx) Write(off int, src []byte) error {
	return t.d.call(func() error { return t.tx.Write(off, src) })
}

func (t crashTx) Read(off int, dst []byte) error {
	return t.d.call(func() error { return t.tx.Read(off, dst) })
}

func (t crashTx) Commit() error {
	t.d.commits++
	return t.d.call(t.tx.Commit)
}

func (t crashTx) Abort() error { return t.d.call(t.tx.Abort) }

// shadow is what one run of a history told its caller: every state each
// key was given or was being given, in order ("" is absent; index 0 the
// state before the history), and the newest the store acknowledged. Every
// value is stamped with its key and a version, so a value names its try.
type shadow struct {
	t        *testing.T
	s        *kv.Store
	d        *crashDB
	w        writer    // s, or b inside a burst
	b        *kv.Burst // non-nil inside a burst
	keys     [][]byte
	counting bool // the run that counts the calls: nothing may fail
	tries    map[string][]string
	acked    map[string]int
	pending  []ackable // tried inside a burst or a Txn, not yet acknowledged
	version  int
}

// writer is what a history writes through: the store or a burst of it.
type writer interface {
	Put(key, value []byte) error
	Delete(key []byte) error
	Begin() (*kv.Txn, error)
}

type ackable struct {
	key string
	try int
}

func (h *shadow) try(k int, state string) ackable {
	key := string(h.keys[k])
	if h.tries[key] == nil {
		h.tries[key] = []string{""}
	}
	h.tries[key] = append(h.tries[key], state)
	return ackable{key, len(h.tries[key]) - 1}
}

// settle acknowledges a's tries when err is nil; in the counting run any
// error fails the test.
func (h *shadow) settle(op string, err error, a ...ackable) {
	h.t.Helper()
	if err != nil {
		if h.counting {
			h.t.Fatalf("%s: %v", op, err)
		}
		return
	}
	for _, t := range a {
		h.acked[t.key] = max(h.acked[t.key], t.try)
	}
}

// stage acknowledges a's tries now, or, inside a burst, at its seal.
func (h *shadow) stage(op string, err error, a ...ackable) {
	if h.b != nil && err == nil {
		h.pending = append(h.pending, a...)
		return
	}
	h.settle(op, err, a...)
}

func (h *shadow) value(k, n int) string {
	h.version++
	v := fmt.Sprintf("%s:v%03d:", h.keys[k], h.version)
	return v + strings.Repeat(".", n-len(v))
}

// put gives key k a new value n bytes long.
func (h *shadow) put(k, n int) {
	v := h.value(k, n)
	a := h.try(k, v)
	h.stage("put", h.w.Put(h.keys[k], []byte(v)), a)
}

// same overwrites key k with a value of its last value's length: only the
// version's bytes differ.
func (h *shadow) same(k int) {
	tries := h.tries[string(h.keys[k])]
	h.put(k, len(tries[len(tries)-1]))
}

func (h *shadow) del(k int) {
	a := h.try(k, "")
	h.stage("delete", h.w.Delete(h.keys[k]), a)
}

// committed checks, in the counting run, how many transactions kv has
// committed since the history began.
func (h *shadow) committed(n int) {
	h.t.Helper()
	if h.counting && h.d.commits != n {
		h.t.Fatalf("%d transactions committed, want %d", h.d.commits, n)
	}
}

// burst runs ops inside one kv.Burst and seals it.
func (h *shadow) burst(ops func()) {
	h.b = h.s.Burst()
	h.w = h.b
	ops()
	err := h.b.Seal()
	h.w, h.b = h.s, nil
	h.settle("seal", err, h.pending...)
	h.pending = nil
}

// txnOp is one key of a Txn: a put of an n-byte value, or a delete.
type txnOp struct {
	k, n int
	del  bool
}

// txn commits ops as one multi-key Txn.
func (h *shadow) txn(ops ...txnOp) {
	tried := make([]ackable, len(ops))
	vals := make([]string, len(ops))
	for i, op := range ops {
		if !op.del {
			vals[i] = h.value(op.k, op.n)
		}
		tried[i] = h.try(op.k, vals[i])
	}
	txn, err := h.w.Begin()
	for i := 0; err == nil && i < len(ops); i++ {
		if ops[i].del {
			err = txn.Delete(h.keys[ops[i].k])
		} else {
			err = txn.Put(h.keys[ops[i].k], []byte(vals[i]))
		}
	}
	if err == nil {
		err = txn.Commit()
	}
	h.stage("txn", err, tried...)
}

// check holds the recovered store to the shadow and returns what fails:
// each key must read a state it was given, no older than its acknowledged
// one, and the live count and every region's free list must agree with the
// keys that read present.
func (h *shadow) check(s *kv.Store) []string {
	h.t.Helper()
	var bad []string
	regions, _, slots := s.Geometry()
	used := make([]int, regions)
	live := 0
	for key, tries := range h.tries {
		got, err := s.Get([]byte(key))
		state := string(got)
		if errors.Is(err, kv.ErrNotFound) {
			state = ""
		} else if err != nil {
			h.t.Fatalf("key %q: %v", key, err)
		}
		j := len(tries) - 1
		for j >= 0 && tries[j] != state {
			j--
		}
		switch {
		case j < 0:
			bad = append(bad, fmt.Sprintf("key %q reads %.20q, a value never written (tries %.20q)", key, state, tries))
		case j < h.acked[key]:
			bad = append(bad, fmt.Sprintf("key %q reads try %d %.20q, but try %d %.20q was acknowledged", key, j, state, h.acked[key], tries[h.acked[key]]))
		}
		if state != "" {
			live++
			r, _ := s.Place([]byte(key))
			used[r]++
		}
	}
	if got := s.Len(); got != live {
		bad = append(bad, fmt.Sprintf("Len = %d, want %d", got, live))
	}
	for r := range used {
		if got := s.FreeSlots(r); got != slots-used[r] {
			bad = append(bad, fmt.Sprintf("region %d has %d free slots, want %d", r, got, slots-used[r]))
		}
	}
	return bad
}

// crashHistory is one kv history of at most six operations, over keys that
// alternate between the deployment's shards.
type crashHistory struct {
	name     string
	slotSize int
	keys     int
	run      func(h *shadow)
}

var crashHistories = []crashHistory{
	// insert, overwrite, same-length overwrite, delete, and an insert
	// into the tombstone
	{"put", 0, 2, func(h *shadow) {
		h.put(0, 20)
		h.put(0, 30)
		h.same(0)
		h.del(0)
		h.put(1, 20)
		h.put(0, 20)
	}},
	{"txn", 0, 3, func(h *shadow) {
		h.put(0, 20)
		h.put(1, 20)
		h.txn(txnOp{k: 0, n: 20}, txnOp{k: 2, n: 25}, txnOp{k: 1, del: true})
		h.same(2)
	}},
	{"burst", 0, 4, func(h *shadow) {
		h.put(0, 20)
		h.put(1, 20)
		h.burst(func() {
			h.put(2, 20)
			h.same(0)
			h.del(1)
			h.put(3, 30)
		})
	}},
	{"burst-txn", 0, 3, func(h *shadow) {
		h.put(0, 20)
		h.burst(func() {
			h.put(1, 20)
			h.txn(txnOp{k: 0, n: 20}, txnOp{k: 2, n: 25}, txnOp{k: 1, del: true})
			h.put(2, 40)
		})
	}},
	// Five mutations of 60 KiB slots pass txUndoLimit (a quarter of the V3
	// undo log), so the burst's transaction commits early before the fifth.
	{"burst-undo", 60 << 10, 4, func(h *shadow) {
		h.burst(func() {
			h.put(0, 1000)
			h.put(1, 1000)
			h.put(2, 1000)
			h.put(3, 1000)
			h.committed(0)
			h.same(0)
			h.committed(1)
			h.del(1)
		})
	}},
}

// tornUndo names the crash points where the passive scheme's survivor
// puts a torn V3 undo record over a key's committed record: the record's
// first 32-byte block retires from the dead primary's write buffer full,
// its partial tail block dies there, and the takeover's undo scan, which
// checks the header's tag alone, copies the stale tail into the database.
// Each of them must still show it (so the list shrinks with a fix), and no
// other point may.
var tornUndo = map[string]bool{}

func init() {
	for _, shards := range []string{"shards1", "shards2"} {
		for step := 8; step <= 9; step++ {
			tornUndo[fmt.Sprintf("Passive/%s/put/step%d/shard0", shards, step)] = true
		}
		for step := 23; step <= 30; step++ {
			tornUndo[fmt.Sprintf("Passive/%s/burst/step%d/shard0", shards, step)] = true
		}
	}
	tornUndo["Passive/shards2/burst/step31/shard0"] = true
	tornUndo["Passive/shards2/burst/step32/shard0"] = true
}

// crashKeys picks n keys, the i-th on shard i%shards and each in a region
// of its own.
func crashKeys(c *repro.Cluster, s *kv.Store, n int) [][]byte {
	var keys [][]byte
	taken := map[int]bool{}
	for i := 0; len(keys) < n; i++ {
		key := []byte(fmt.Sprintf("key%d", i))
		r, _ := s.Place(key)
		if !taken[r] && c.ShardFor(r*c.PartSize()) == len(keys)%c.Shards() {
			taken[r] = true
			keys = append(keys, key)
		}
	}
	return keys
}

// TestKVCrashPoints crashes a shard's primary at every call kv makes into
// the deployment during small histories — and at every call of the format
// an Open over zeroed bytes makes — under both backup schemes on one and
// two shards at quorum, then fails the shard over, repairs it and reopens
// the store: the reopen must accept the bytes, every acknowledged write
// (or a newer one) must read back, nothing never written may, and the
// counts must agree. A point replays alone by its name, for example
//
//	go test ./kv -run '^TestKVCrashPoints$/^Active$/^shards2$/^burst$/^step7$/^shard1$'
func TestKVCrashPoints(t *testing.T) {
	points := 0
	valid := map[string]bool{} // every point's name
	ran := map[string]bool{}   // the histories whose points were listed
	for _, scheme := range []repro.BackupMode{repro.ActiveBackup, repro.PassiveBackup} {
		for _, shards := range []int{1, 2} {
			cfg := repro.Config{Backup: scheme, Backups: 2, Safety: repro.QuorumSafe, DBSize: shards << 20}
			for _, hist := range append(crashHistories, crashHistory{name: "format"}) {
				name := fmt.Sprintf("%v/shards%d/%s", scheme, shards, hist.name)
				t.Run(name, func(t *testing.T) {
					ran[name] = true
					total := runCrashPoint(t, cfg, shards, hist, -1, -1, 0)
					if total < 4 {
						t.Fatalf("the history made %d calls", total)
					}
					for step := 0; step <= total; step++ {
						for shard := 0; shard < shards; shard++ {
							point := fmt.Sprintf("step%d/shard%d", step, shard)
							valid[name+"/"+point] = true
							t.Run(point, func(t *testing.T) {
								points++
								runCrashPoint(t, cfg, shards, hist, step, total, shard)
							})
						}
					}
				})
			}
		}
	}
	for name := range tornUndo {
		if ran[name[:strings.Index(name, "/step")]] && !valid[name] {
			t.Errorf("tornUndo names %s, which is no crash point", name)
		}
	}
	t.Logf("%d crash points, %d of them the passive scheme's torn undo record", points, len(tornUndo))
}

// heal fails the crashed shard over and repairs it.
func heal(t *testing.T, d *crashDB) {
	t.Helper()
	if !d.crashed || d.err != nil {
		t.Fatalf("crash at call %d of %d: crashed %v, %v", d.at, d.total, d.crashed, d.err)
	}
	if err := d.Shard(d.shard).Failover(); err != nil {
		t.Fatal(err)
	}
	if err := d.Shard(d.shard).Repair(); err != nil {
		t.Fatal(err)
	}
}

// runCrashPoint runs hist on a fresh deployment with the crash armed at
// call at of total (-1: none) and returns the calls it counted. With a
// crash it heals the shard and reopens the store (the format's history,
// which has no run, opens it again) and checks it.
func runCrashPoint(t *testing.T, cfg repro.Config, shards int, hist crashHistory, at, total, shard int) int {
	t.Helper()
	c := newSharded(t, shards, cfg).(*repro.Cluster)
	d := &crashDB{Cluster: c, at: -1, total: -1, shard: shard}
	if hist.run == nil {
		d.at, d.total = at, total
	}
	s, err := kv.OpenWith(d, kv.Options{SlotSize: hist.slotSize})
	if hist.run == nil {
		if at >= 0 {
			heal(t, d)
			s, err = kv.Open(c)
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if n := s.Len(); n != 0 {
			t.Fatalf("Len = %d after format", n)
		}
		return d.calls
	}
	if err != nil {
		t.Fatal(err)
	}
	d.calls, d.commits, d.at, d.total = 0, 0, at, total
	h := &shadow{t: t, s: s, d: d, w: s, keys: crashKeys(c, s, hist.keys), counting: at < 0, tries: map[string][]string{}, acked: map[string]int{}}
	hist.run(h)
	if at < 0 {
		return d.calls
	}
	heal(t, d)
	if err := s.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	bad := h.check(s)
	if name := strings.TrimPrefix(t.Name(), "TestKVCrashPoints/"); tornUndo[name] {
		if len(bad) == 0 {
			t.Errorf("%s no longer restores a torn undo record: drop it from tornUndo", name)
		}
		t.Logf("the passive scheme's torn undo record: %v", bad)
	} else {
		for _, b := range bad {
			t.Error(b)
		}
	}
	return d.calls
}
