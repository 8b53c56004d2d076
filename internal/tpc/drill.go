package tpc

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro"
)

// Window is one measured throughput window of a drill.
type Window struct {
	// Phase is the name of the step that measured the window.
	Phase string
	// Txns is the number of transactions committed in the window.
	Txns int64
	// TPS is the window's throughput in transactions per simulated
	// second.
	TPS float64
}

// Action is one change a drill makes to its deployment.
type Action func(c *repro.Cluster) error

// Step is one stretch of a drill's timeline: an optional action, then
// the windows measured after it.
type Step struct {
	// Phase names the step's windows.
	Phase string
	// Act, when set, runs once before the step's first window.
	Act Action
	// Before, when set, runs before each of the step's windows with the
	// window's index within the step: an injector.
	Before func(c *repro.Cluster, i int) error
	// Until, when set, ends the step at the first window after which it
	// reports true, and makes the step's windows degraded: a safety level
	// that refuses service idles the deployment instead of failing the
	// drill, so it shows up as an empty or slow window. Windows then caps
	// the step, and the drill fails if Until still reports false after
	// that many. Without Until the step measures exactly Windows strict
	// windows.
	Until   func(c *repro.Cluster) bool
	Windows int
}

// Inject returns s with a also landing before its window i.
func (s Step) Inject(i int, a Action) Step {
	before := s.Before
	s.Before = func(c *repro.Cluster, j int) error {
		if before != nil {
			if err := before(c, j); err != nil {
				return err
			}
		}
		if j != i {
			return nil
		}
		return a(c)
	}
	return s
}

// maxSettles caps the idle steps one degraded window spends waiting for a
// deployment to regain its safety level.
const maxSettles = 10_000

// Drill is the one fault-timeline driver: it measures c's throughput in
// fixed simulated-time windows while a schedule of steps crashes, repairs
// or grows it between them. It runs warmup transactions of one (cache and
// SAN state carry over; counters reset), then the steps in order, and
// returns every window they measured. The availability, chaos and
// rebalance cells are step lists; each reads its table off the windows
// and the deployment's own state (RepairProgress, AutopilotEvents, the
// metrics scrape, PlacementEpoch).
func Drill(c *repro.Cluster, one func() error, window time.Duration, warmup int64, steps ...Step) ([]Window, error) {
	for i := int64(0); i < warmup; i++ {
		if err := one(); err != nil {
			return nil, fmt.Errorf("tpc: warmup txn %d: %w", i, err)
		}
	}
	c.ResetMeasurement()
	var windows []Window
	for _, s := range steps {
		if s.Act != nil {
			if err := s.Act(c); err != nil {
				return windows, fmt.Errorf("tpc: %s step: %w", s.Phase, err)
			}
		}
		for i := 0; ; i++ {
			if i == s.Windows {
				if s.Until == nil {
					break
				}
				return windows, fmt.Errorf("tpc: %s did not complete within %d windows", s.Phase, s.Windows)
			}
			if s.Before != nil {
				if err := s.Before(c, i); err != nil {
					return windows, fmt.Errorf("tpc: %s window %d: %w", s.Phase, i, err)
				}
			}
			w, err := measure(c, one, window, s.Phase, s.Until != nil)
			if err != nil {
				return windows, err
			}
			windows = append(windows, w)
			if s.Until != nil && s.Until(c) {
				break
			}
		}
	}
	return windows, nil
}

// measure runs transactions for one window of simulated time and counts
// the calls of one that committed. With degraded set,
// ErrSafetyUnavailable settles the deployment and retries; idle time still
// heals.
func measure(c *repro.Cluster, one func() error, window time.Duration, phase string, degraded bool) (Window, error) {
	var n int64
	start := c.Elapsed()
	for settles := 0; c.Elapsed()-start < window; {
		if err := one(); err != nil {
			if degraded && errors.Is(err, repro.ErrSafetyUnavailable) {
				if settles++; settles > maxSettles {
					return Window{}, fmt.Errorf("tpc: %s window: deployment never regained its safety level", phase)
				}
				c.Settle()
				continue
			}
			return Window{}, fmt.Errorf("tpc: %s window: %w", phase, err)
		}
		n++
	}
	return Window{Phase: phase, Txns: n, TPS: float64(n) / (c.Elapsed() - start).Seconds()}, nil
}

// Runner is a workload's transaction stream drawn from a seed, bound to
// one deployment: One runs its next transaction (a drill's one), Audit
// checks the deployment's image against the replay oracle, and a cold
// restart rewinds it to the transactions the deployment recovered.
type Runner struct {
	c         *repro.Cluster
	seed      uint64
	st        stream
	committed int64
}

// Stream populates w on c and returns the runner of w's transaction
// stream drawn from seed.
func Stream(c *repro.Cluster, w Workload, seed uint64) (*Runner, error) {
	if err := w.Populate(c.Load); err != nil {
		return nil, err
	}
	return &Runner{c: c, seed: seed, st: stream{begin: c.Begin, w: w, r: NewRand(seed)}}, nil
}

// One runs the stream's next transaction.
func (r *Runner) One() error {
	if err := r.st.one(false); err != nil {
		return err
	}
	r.committed++
	return nil
}

// Audit checks that the deployment's image over the workload's layout
// equals the replay oracle's after the transactions One has committed so
// far, whose number it returns.
func (r *Runner) Audit() (int64, error) {
	return r.committed, auditImage(r.c, r.st.w, r.seed, r.committed)
}

// rewind puts the stream back to k committed transactions: the generator
// is replayed to where it stood after them.
func (r *Runner) rewind(k int64) error {
	_, gen, err := replay(r.st.w, Options{Seed: r.seed}, k)
	if err != nil {
		return err
	}
	r.st.r, r.st.n, r.committed = gen, k, k
	return nil
}

// PhaseStats summarizes the windows that belong to any of the named
// phases: their count, mean throughput and worst throughput. A window
// can genuinely hold zero transactions, so a zero worst is a value, not
// "unset".
func PhaseStats(windows []Window, phases ...string) (n int, mean, worst float64) {
	var sum float64
	for _, w := range windows {
		if !slices.Contains(phases, w.Phase) {
			continue
		}
		sum += w.TPS
		if n == 0 || w.TPS < worst {
			worst = w.TPS
		}
		n++
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return n, mean, worst
}
