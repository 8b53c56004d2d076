package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.125, 15}, {0.9, 46},
	} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// TestQuartiles pins quartiles to what Python's statistics.quantiles(n=4)
// returns, since the driver judges spreads with that function.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2, 5, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestSubWindowMedian builds three sub-windows of which the middle one ran
// at a third of the speed and twice the latency — a neighbour stealing the
// CPU — and checks that the run reports the undisturbed sub-windows.
func TestSubWindowMedian(t *testing.T) {
	const sub = time.Second
	var recs []rec
	add := func(window, n int, lat time.Duration) {
		for i := range n {
			due := time.Duration(window)*sub + time.Duration(i)*sub/time.Duration(n)
			recs = append(recs, rec{due: int64(due), lat: uint32(lat), kind: opPut, ok: true})
		}
	}
	add(0, 900, 100*time.Microsecond)
	add(1, 300, 200*time.Microsecond)
	add(2, 900, 100*time.Microsecond)
	// One failure and one slow operation, both due in the first sub-window.
	recs = append(recs,
		rec{due: 1, lat: uint32(50 * time.Microsecond), kind: opGet, ok: false},
		rec{due: 2, lat: uint32(5 * time.Millisecond), kind: opGet, ok: true})
	w := analyse([][]rec{recs}, 3, sub, time.Millisecond, nil)
	if w.attempted != 2102 || w.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2102 and 1", w.attempted, w.failed)
	}
	if got := w.subMedian(func(s subWindow) float64 { return s.opsPerS }); got != 900 {
		t.Errorf("ops/s = %v, want the undisturbed 900", got)
	}
	if got := w.subMedian(func(s subWindow) float64 { return s.putP50us }); got != 100 {
		t.Errorf("put p50 = %v us, want the undisturbed 100", got)
	}
	// A failed operation and one over the limit both miss it.
	if got, want := w.subs[0].within, 900.0/902; math.Abs(got-want) > 1e-12 {
		t.Errorf("within-limit share of the first sub-window = %v, want %v", got, want)
	}
}

// TestAnalysePlacesByDueAndByCompletion checks the open-loop rule: an
// operation due during an outage counts against the sub-window it was due
// in, and as throughput in the sub-window it finished in.
func TestAnalysePlacesByDueAndByCompletion(t *testing.T) {
	const sub = time.Second
	late := rec{due: int64(900 * time.Millisecond), lat: uint32(300 * time.Millisecond), kind: opPut, ok: true}
	w := analyse([][]rec{{late}}, 2, sub, 25*time.Millisecond, nil)
	if w.subs[0].attempted != 1 || w.subs[0].within != 0 || w.subs[0].completed != 0 {
		t.Errorf("first sub-window %+v: want the operation attempted here, over the limit, completed elsewhere", w.subs[0])
	}
	if w.subs[1].completed != 1 || w.subs[1].attempted != 0 {
		t.Errorf("second sub-window %+v: want the operation completed here", w.subs[1])
	}
}

func TestCountsOverrideSampledRates(t *testing.T) {
	recs := []rec{{due: 0, lat: 1000, kind: opPut, ok: true}, {due: int64(time.Second), lat: 3000, kind: opPut, ok: true}}
	w := analyse([][]rec{recs}, 2, time.Second, time.Millisecond, []int64{1700, 3400})
	if w.subs[0].opsPerS != 1700 || w.subs[1].opsPerS != 3400 || w.attempted != 5100 {
		t.Errorf("rates %v and %v over %d operations, want 1700, 3400 and 5100", w.subs[0].opsPerS, w.subs[1].opsPerS, w.attempted)
	}
	if w.subs[1].putP50us != 3 {
		t.Errorf("put p50 %v us, want the sample's 3", w.subs[1].putP50us)
	}
}

func TestValueRoundTrip(t *testing.T) {
	val := bytes.Repeat([]byte{'x'}, valueSize)
	putValue(val, 123456789012, 99999999)
	version, k, ok := parseValue(val)
	if !ok || version != 123456789012 || k != 99999999 {
		t.Fatalf("parseValue = %d, %d, %v", version, k, ok)
	}
	if string(val[:headerLen]) != "v123456789012|k99999999|" {
		t.Errorf("header %q", val[:headerLen])
	}
	for _, bad := range [][]byte{val[:valueSize-1], bytes.Replace(val, []byte("|"), []byte("/"), 1), bytes.Replace(val, []byte("3"), []byte("a"), 1)} {
		if _, _, ok := parseValue(bad); ok {
			t.Errorf("parseValue accepted %q", bad[:headerLen])
		}
	}
	var key [keyLen]byte
	putKey(key[:], 42)
	if string(key[:]) != "user00000042" {
		t.Errorf("key %q", key)
	}
}

func TestZipfIsSkewedAndSeeded(t *testing.T) {
	const n, draws = 1000, 200_000
	z := newZipf(n, 0.99)
	counts := make([]int, n)
	r := rand.New(rand.NewPCG(1, 2))
	for range draws {
		k := z.rank(r)
		if k < 0 || k >= n {
			t.Fatalf("rank %d outside [0, %d)", k, n)
		}
		counts[k]++
	}
	// Rank 0 has probability 1/zeta(n).
	if got, want := float64(counts[0])/draws, 1/z.zetan; math.Abs(got-want) > 0.01 {
		t.Errorf("rank 0 drawn %.4f of the time, want %.4f", got, want)
	}
	if !(counts[0] > counts[9] && counts[9] > counts[99] && counts[99] > counts[999]) {
		t.Errorf("counts not falling with rank: %d, %d, %d, %d", counts[0], counts[9], counts[99], counts[999])
	}
	a, b := rand.New(rand.NewPCG(7, 7)), rand.New(rand.NewPCG(7, 7))
	for range 1000 {
		if x, y := z.rank(a), z.rank(b); x != y {
			t.Fatalf("same seed, different ranks: %d and %d", x, y)
		}
	}
}

func TestOpGen(t *testing.T) {
	const keys = 1600
	z := newZipf(keys, 0.99)
	stream := func(seed uint64, worker int) (kinds []uint8, ks []int) {
		g := newOpGen(seed, worker, keys, 95, z)
		for range 5000 {
			kind, k := g.next()
			kinds, ks = append(kinds, kind), append(ks, k)
		}
		return kinds, ks
	}
	kinds, ks := stream(3, 5)
	kinds2, ks2 := stream(3, 5)
	if !slices.Equal(kinds, kinds2) || !slices.Equal(ks, ks2) {
		t.Error("the same seed and worker gave two different streams")
	}
	if _, other := stream(4, 5); slices.Equal(ks, other) {
		t.Error("another seed gave the same stream")
	}
	gets := 0
	for i, kind := range kinds {
		if ks[i] < 0 || ks[i] >= keys {
			t.Fatalf("key %d outside the keyspace", ks[i])
		}
		if kind == opGet {
			gets++
		} else if ks[i]%workers != 5 {
			t.Fatalf("worker 5 puts key %d, which worker %d owns", ks[i], ks[i]%workers)
		}
	}
	if share := float64(gets) / float64(len(kinds)); math.Abs(share-0.95) > 0.02 {
		t.Errorf("GET share %.3f, want 0.95", share)
	}
}

// TestPaceStampsDueTimes runs the pacer against a consumer that stalls, and
// checks that every operation still carries the time it was due, not the
// time it was sent, and that the pacer reports the lag.
func TestPaceStampsDueTimes(t *testing.T) {
	const interval = 100 * time.Microsecond
	const length = 20 * time.Millisecond
	start := time.Now()
	due := make(chan time.Time) // unbuffered: the pacer waits for the consumer
	var lag time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		lag = pace(start, length, interval, due)
	}()
	i := 0
	for at := range due {
		if i == 50 {
			time.Sleep(10 * time.Millisecond) // the stall
		}
		if want := start.Add(time.Duration(i) * interval); !at.Equal(want) {
			t.Fatalf("operation %d stamped %v after the start, want %v", i, at.Sub(start), want.Sub(start))
		}
		i++
	}
	<-done
	if i != int(length/interval) {
		t.Errorf("%d operations sent, want %d", i, length/interval)
	}
	if lag < 5*time.Millisecond {
		t.Errorf("pacer reported a lag of %v through a 10 ms stall", lag)
	}
}

func TestCrashTimesAndOutages(t *testing.T) {
	sc := newScale(15, false)
	times := crashTimes(sc)
	perSub := make([]int, sc.subs)
	for _, c := range times {
		perSub[int(c/sc.sub)]++
	}
	for i, n := range perSub {
		if n != perSub[0] || n == 0 {
			t.Fatalf("crashes per sub-window %v: sub-window %d differs", perSub, i)
		}
	}
	if last := times[len(times)-1]; last > time.Duration(sc.subs)*sc.sub-sc.sub/5 {
		t.Errorf("last crash at %v leaves no time to heal", last)
	}
	ms := func(n int) int64 { return int64(time.Duration(n) * time.Millisecond) }
	recs := [][]rec{{
		{due: ms(90), lat: uint32(ms(200)), ok: true},  // due before the crash
		{due: ms(110), lat: uint32(ms(90)), ok: true},  // due after it, done at 200
		{due: ms(120), lat: uint32(ms(60)), ok: true},  // done at 180: the first
		{due: ms(105), lat: uint32(ms(10)), ok: false}, // failed: does not end an outage
	}}
	got := outages(recs, []time.Duration{100 * time.Millisecond})
	if len(got) != 1 || got[0] != 80*time.Millisecond {
		t.Errorf("outage %v, want 80ms", got)
	}
}

// TestInprocSimCoversMeasuredTransactions checks that the sim-domain numbers
// of Debit-Credit cover the transactions run since set-up and none of the
// warm-up's (the deployment's commit counter includes those), and that two
// runs of one seed agree on them to the last digit.
func TestInprocSimCoversMeasuredTransactions(t *testing.T) {
	sc := newScale(1, true)
	w, err := findWorkload("inproc-debitcredit")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *measured {
		r, err := setUpInproc(sc.sized(w), sc, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.measure(sc)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.db.Stats().Commits - r.base; got != r.next-r.warmup || got < sc.simTxns {
			t.Errorf("%d commits since set-up for %d transactions, want equal and at least %d", got, r.next-r.warmup, sc.simTxns)
		}
		return m
	}
	a, b := run(), run()
	if a.txns != sc.simTxns {
		t.Errorf("sim-domain numbers cover %d transactions, want %d", a.txns, sc.simTxns)
	}
	if a.simTime <= 0 || a.traffic.Total() <= 0 {
		t.Errorf("nothing measured: %v simulated, %+v", a.simTime, a.traffic)
	}
	if a.simTime != b.simTime || a.traffic != b.traffic {
		t.Errorf("two runs of one seed differ: %v %+v and %v %+v", a.simTime, a.traffic, b.simTime, b.traffic)
	}
}

// TestSmokeMatchesContract builds the benchmark as the driver does and runs
// every workload at the smoke scale, untraced and traced: each run must
// report correct results and exactly the metrics BENCHMARK.json lists for
// that mode, with the units it lists.
func TestSmokeMatchesContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark and runs eight workloads")
	}
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	want := [2]map[string]string{{}, {}}
	for _, e := range c.EndToEnd {
		want[0][e.Name] = e.Unit
	}
	for _, e := range c.PerLayer {
		want[1][e.Name] = e.Unit
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		for trace, units := range want {
			traceArg := []string{"0", "1"}[trace]
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", traceArg, "-smoke")
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s --trace %s: %v", w.Name, traceArg, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				t.Fatalf("%s --trace %s: last line %q: %v", w.Name, traceArg, lines[len(lines)-1], err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.Name, traceArg, rep.Correct, rep.Attempted, rep.Failed)
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			for _, name := range sortedKeys(units, got) {
				if got[name] != units[name] {
					t.Errorf("%s --trace %s: metric %s has unit %q, BENCHMARK.json says %q (\"\" = absent)",
						w.Name, traceArg, name, got[name], units[name])
				}
			}
		}
	}
}

func sortedKeys(ms ...map[string]string) []string {
	seen := map[string]bool{}
	for _, m := range ms {
		for k := range m {
			seen[k] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
