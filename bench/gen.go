package main

import (
	"math"
	"math/rand/v2"
)

// workers is the number of load-generator goroutines, and so the number of
// operations a served workload keeps in flight. Each key has one writer —
// key k belongs to worker k mod workers — which is what makes the
// acked-write audit exact.
const workers = 16

// Value layout: "v%012d|k%08d|" then filler up to valueSize. The version
// orders the writes of a key; the key index lets a reader tell that the
// value it got belongs to the key it asked for.
const (
	valueSize = 128
	headerLen = 1 + 12 + 1 + 1 + 8 + 1
	keyLen    = 4 + 8
)

// putKey writes "user%08d" into dst, which must be keyLen bytes.
func putKey(dst []byte, k int) {
	copy(dst, "user")
	putDigits(dst[4:keyLen], uint64(k))
}

// putDigits fills dst with v in decimal, zero-padded on the left.
func putDigits(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// putValue writes the header for (version, k) into dst, which must be
// valueSize bytes whose filler is already in place.
func putValue(dst []byte, version int64, k int) {
	dst[0] = 'v'
	putDigits(dst[1:13], uint64(version))
	dst[13] = '|'
	dst[14] = 'k'
	putDigits(dst[15:23], uint64(k))
	dst[23] = '|'
}

// parseValue checks that val is a well-formed value and returns the version
// and key index its header carries.
func parseValue(val []byte) (version int64, k int, ok bool) {
	if len(val) != valueSize || val[0] != 'v' || val[13] != '|' || val[14] != 'k' || val[23] != '|' {
		return 0, 0, false
	}
	v, ok1 := parseDigits(val[1:13])
	kk, ok2 := parseDigits(val[15:23])
	return int64(v), int(kk), ok1 && ok2
}

func parseDigits(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^theta, for theta in (0, 1) — the range math/rand's Zipf does
// not cover. It is the constant-time generator of Gray et al. ("Quickly
// generating billion-record synthetic databases", SIGMOD 1994) that YCSB
// uses: one uniform draw and one Pow per rank.
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		var s float64
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, zetan: zeta(n)}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) rank(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}

// opGen is one worker's operation stream: a function of (seed, worker) and
// nothing else.
type opGen struct {
	rng    *rand.Rand
	worker int
	keys   int
	getPct int
	zipf   *zipf // nil = uniform keys
}

func newOpGen(seed uint64, worker, keys, getPct int, z *zipf) *opGen {
	return &opGen{
		rng:    rand.New(rand.NewPCG(seed, uint64(worker))),
		worker: worker, keys: keys, getPct: getPct, zipf: z,
	}
}

// next returns the next operation. A GET may ask for any key; a PUT goes to
// the key this worker owns in the same block of `workers` consecutive keys,
// which keeps the popularity of a block of ranks what the distribution says.
func (g *opGen) next() (kind uint8, k int) {
	kind = opPut
	if g.rng.IntN(100) < g.getPct {
		kind = opGet
	}
	if g.zipf != nil {
		k = g.zipf.rank(g.rng)
	} else {
		k = g.rng.IntN(g.keys)
	}
	if kind == opPut {
		k = k - k%workers + g.worker
	}
	return kind, k
}
