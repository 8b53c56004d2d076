package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/kvwire"
	"repro/internal/mem"
	"repro/internal/placement"
	"repro/internal/replication"
	"repro/internal/rio"
	"repro/internal/sim"
	"repro/internal/vista"
	"repro/internal/wal"
	"repro/kv"
	"repro/kvclient"
)

// The ladder times the same logical 64-byte put at each public entry point
// of the stack, one goroutine, a fixed number of calls: the cost of a layer
// is the difference between two adjacent rungs. Rungs from replication up
// run three backups under quorum commit, as the workloads do; rungs from
// the repro facade up also run the served workloads' autopilot, whose
// admission check every Begin pays.
const (
	ladderDB   = 8 << 20
	ladderReps = 5
	payloadLen = 64
)

// ladder holds the rungs measured so far.
type ladder struct {
	out map[string]metric
	// div divides every rung's call count: 1 at full scale.
	div int
}

// rung runs fn calls times, ladderReps times over, and records the median
// time of one call under name, in unit ("ns", "us" or "ms").
func (l *ladder) rung(name, unit string, calls int, fn func()) {
	calls = max(calls/l.div, 1)
	per := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	reps := make([]float64, ladderReps)
	for i := range reps {
		t0 := time.Now()
		for range calls {
			fn()
		}
		reps[i] = float64(time.Since(t0)) / float64(calls) / per
	}
	l.out[name] = metric{Value: median(reps), Unit: unit}
}

// allocs records the heap allocations one call of fn makes, anywhere in the
// process.
func (l *ladder) allocs(name string, fn func()) {
	l.out[name] = metric{Value: testing.AllocsPerRun(max(2000/l.div, 10), fn), Unit: "count"}
}

// spread walks offsets over a region of size bytes in 128-byte steps, the
// way the Debit-Credit records lie.
type spread struct{ i, slots int }

func newSpread(size int) *spread { return &spread{slots: size / 128} }

func (s *spread) next() int {
	s.i++
	return s.i % s.slots * 128
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("ladder: %v", err))
	}
}

// putTx is the logical put at the transaction level.
func putTx(tx replication.TxHandle, off int, payload []byte) {
	must(tx.SetRange(off, payloadLen))
	must(tx.Write(off, payload))
	must(tx.Commit())
}

// runLadder measures every rung. dir is a directory the WAL rung may write
// in. A rung that fails panics: the ladder runs only fixed inputs, so a
// failure is a bug in the program or in the benchmark.
func runLadder(div int, dir string) (out map[string]metric, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	l := &ladder{out: map[string]metric{}, div: div}
	payload := bytes.Repeat([]byte{0xa5}, payloadLen)
	l.memAndVista(payload)
	l.replication(payload)
	l.facade(payload)
	l.kv(payload)
	l.wire(payload)
	l.walAndObs(payload, dir)
	return l.out, nil
}

func (l *ladder) memAndVista(payload []byte) {
	p := sim.Default()
	clk := &sim.Clock{}
	sp := mem.NewSpace()
	acc := mem.NewAccessor(&p, clk, cache.New(&p, clk), sp)
	cfg := vista.Config{Version: vista.V3InlineLog, DBSize: ladderDB}
	specs, err := vista.Layout(cfg)
	must(err)
	_, err = vista.PlaceRegions(sp, specs, 8<<20)
	must(err)
	store, err := vista.Open(cfg, acc, rio.New(sp))
	must(err)
	base := sp.ByName(vista.RegionDB).Base
	at := newSpread(ladderDB)
	l.rung("mem.store_ns", "ns", 400_000, func() {
		acc.Write(base+uint64(at.next()), payload, mem.CatModified)
	})
	l.rung("vista.commit_ns", "ns", 100_000, func() {
		tx, err := store.Begin()
		must(err)
		putTx(tx, at.next(), payload)
	})
}

func (l *ladder) replication(payload []byte) {
	group := func(safety replication.Safety, batch int) func() {
		g, err := replication.NewGroup(replication.Config{
			Mode:        replication.Active,
			Store:       vista.Config{Version: vista.V3InlineLog, DBSize: ladderDB},
			Backups:     3,
			Safety:      safety,
			CommitBatch: batch,
		})
		must(err)
		at := newSpread(ladderDB)
		return func() {
			tx, err := g.Begin()
			must(err)
			putTx(tx, at.next(), payload)
		}
	}
	l.rung("replication.commit_1safe_ns", "ns", 40_000, group(replication.OneSafe, 0))
	quorum := group(replication.QuorumSafe, 0)
	l.rung("replication.commit_quorum_ns", "ns", 20_000, quorum)
	l.allocs("replication.commit_allocs", quorum)
	l.rung("replication.commit_quorum_b16_ns", "ns", 40_000, group(replication.QuorumSafe, 16))
}

func (l *ladder) facade(payload []byte) {
	cfg := deployment(workload{served: true, dbMiB: ladderDB >> 20}, false)
	tx := func(db repro.DB, off func() int) func() {
		return func() {
			tx, err := db.Begin()
			must(err)
			putTx(tx, off(), payload)
		}
	}
	c, err := repro.New(cfg)
	must(err)
	l.rung("repro.cluster_tx_ns", "ns", 20_000, tx(c, newSpread(ladderDB).next))
	s1, err := repro.NewSharded(cfg, 1)
	must(err)
	l.rung("repro.sharded1_tx_ns", "ns", 20_000, tx(s1, newSpread(ladderDB).next))
	s4, err := repro.NewSharded(cfg, 4)
	must(err)
	// Visit the four shards in turn.
	at, i := newSpread(s4.ShardSize()), 0
	l.rung("repro.sharded4_tx_ns", "ns", 20_000, tx(s4, func() int {
		i++
		return i%4*s4.ShardSize() + at.next()
	}))
	table := placement.NewLayout(4, s4.ShardSize(), 0).Compile(1)
	sink := 0
	l.rung("placement.lookup_ns", "ns", 4_000_000, func() {
		shard, _, _ := table.Locate(at.next())
		sink += shard
	})
}

// ladderKeys is how many keys the kv and wire rungs cycle over.
const ladderKeys = 4096

func (l *ladder) kv(payload []byte) {
	cfg := deployment(workload{served: true, dbMiB: ladderDB >> 20}, false)
	open := func(db repro.DB, err error) *kv.Store {
		must(err)
		store, err := kv.Open(db)
		must(err)
		var key [keyLen]byte
		for k := range ladderKeys {
			putKey(key[:], k)
			must(store.Put(key[:], payload))
		}
		return store
	}
	var key [keyLen]byte
	i := 0
	nextKey := func() []byte {
		i++
		putKey(key[:], i%ladderKeys)
		return key[:]
	}
	store := open(repro.New(cfg))
	put := func() { must(store.Put(nextKey(), payload)) }
	dst := make([]byte, 0, payloadLen)
	get := func() {
		_, err := store.GetAppend(nextKey(), dst)
		must(err)
	}
	l.rung("kv.put_ns", "ns", 10_000, put)
	l.allocs("kv.put_allocs", put)
	l.rung("kv.get_ns", "ns", 100_000, get)
	l.allocs("kv.get_allocs", get)
	store4 := open(repro.NewSharded(cfg, 4))
	l.rung("kv.put_sharded4_ns", "ns", 5_000, func() { must(store4.Put(nextKey(), payload)) })

	// Reopen is what the server's healer runs after a failover; its cost
	// grows with the store, so this rung uses served-crash's.
	crash := workloads[len(workloads)-1]
	if l.div > 1 {
		crash = scale{smoke: true}.sized(crash)
	}
	big, err := repro.New(deployment(crash, false))
	must(err)
	bigStore, err := kv.Open(big)
	must(err)
	val := bytes.Repeat([]byte{'x'}, valueSize)
	for k := range crash.keys {
		putKey(key[:], k)
		must(bigStore.Put(key[:], val))
	}
	l.rung("kv.reopen_ms", "ms", 1, func() { must(bigStore.Reopen()) })
}

func (l *ladder) wire(payload []byte) {
	var key [keyLen]byte
	putKey(key[:], 1)
	var (
		req   kvwire.Request
		rd    bytes.Reader
		buf   = kvwire.GetBuf()
		frame = kvwire.GetBuf()
		err   error
	)
	codec := func(encode func([]byte) []byte) func() {
		return func() {
			buf = encode(buf[:0])
			rd.Reset(buf)
			frame, err = kvwire.ReadFrame(&rd, frame, kvwire.MaxFrame)
			must(err)
			must(kvwire.ParseRequest(frame, &req))
		}
	}
	l.rung("kvwire.put_codec_ns", "ns", 1_000_000, codec(func(b []byte) []byte { return kvwire.AppendPut(b, key[:], payload) }))
	l.rung("kvwire.get_codec_ns", "ns", 1_000_000, codec(func(b []byte) []byte { return kvwire.AppendGet(b, key[:]) }))

	w := scale{smoke: true}.sized(workloads[1]) // served-mixed's deployment, small
	h, err := startHost(w, false)
	must(err)
	defer h.close()
	cl := kvclient.Dial(h.addr, kvclient.Options{Conns: 1})
	defer cl.Close()
	for k := range ladderKeys {
		putKey(key[:], k)
		must(cl.Put(key[:], payload))
	}
	i := 0
	nextKey := func() []byte {
		i++
		putKey(key[:], i%ladderKeys)
		return key[:]
	}
	put := func() { must(cl.Put(nextKey(), payload)) }
	l.rung("kvserver.ping_rtt_us", "us", 2_000, func() { must(cl.Ping()) })
	l.rung("kvclient.get_rtt_us", "us", 2_000, func() {
		_, err := cl.Get(nextKey())
		must(err)
	})
	l.rung("kvclient.put_rtt_us", "us", 2_000, put)
	l.allocs("kvclient.put_allocs", put)
	// Sixteen callers on the one connection: the time per GET once requests
	// and responses share syscalls. One call of the rung is a round of
	// workers × each GETs.
	each := max(1_000/l.div, 1)
	const pipelined = "kvclient.get_pipelined_us"
	l.rung(pipelined, "us", 1, func() {
		var wg sync.WaitGroup
		for wk := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var key [keyLen]byte
				for j := range each {
					putKey(key[:], (wk*each+j)%ladderKeys)
					if _, err := cl.Get(key[:]); err != nil {
						panic(fmt.Sprintf("ladder: pipelined get: %v", err))
					}
				}
			}()
		}
		wg.Wait()
	})
	l.out[pipelined] = metric{Value: l.out[pipelined].Value / float64(workers*each), Unit: "us"}
}

func (l *ladder) walAndObs(payload []byte, dir string) {
	must(os.MkdirAll(dir, 0o755))
	tmp, err := os.MkdirTemp(dir, "wal-")
	must(err)
	defer os.RemoveAll(tmp)
	r, err := wal.NewReplica(tmp)
	must(err)
	must(r.Start(1, 0))
	var (
		seq   uint64
		frame []byte
	)
	l.rung("wal.flush_us", "us", 50, func() {
		seq++
		frame = wal.AppendCommitFrame(frame[:0], 1, seq, []int{0}, []int{payloadLen}, payload)
		r.Append(frame, seq)
		must(r.Sync())
	})
	must(r.Close())

	db, err := repro.New(deployment(workload{served: true, dbMiB: ladderDB >> 20}, true))
	must(err)
	at := newSpread(ladderDB)
	for range 1000 {
		tx, err := db.Begin()
		must(err)
		putTx(tx, at.next(), payload)
	}
	names := 0
	l.rung("obs.scrape_us", "us", 200, func() { names += len(db.Metrics().Hists) })
}
