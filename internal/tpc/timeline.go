package tpc

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro"
)

// Window is one measured throughput window of a timeline driver
// (RunAvailability, RunChaos, RunRebalance).
type Window struct {
	// Phase names the stretch of the run the window belongs to; each
	// driver documents its own phase names.
	Phase string
	// Start is the window's opening instant on the cumulative timeline.
	Start time.Duration
	// Txns is the number of transactions committed in the window.
	Txns int64
	// TPS is the window's throughput in transactions per simulated
	// second.
	TPS float64
}

// maxSettles caps the idle steps one window spends waiting for a
// deployment to regain its safety level.
const maxSettles = 10_000

// timeline measures a deployment's throughput in fixed simulated-time
// windows while its driver injects faults or topology changes between
// them.
type timeline struct {
	c       *repro.Cluster
	one     func() error // runs one transaction of the driver's stream
	window  time.Duration
	windows []Window
	// cum stitches the cumulative timeline across takeovers, which can
	// re-pin the serving clock to another machine; last is the serving
	// clock's reading at the end of the previous window.
	cum, last time.Duration
}

// startTimeline runs the warm-up transactions (cache and SAN state carry
// over; counters reset) and returns a timeline at instant zero.
func startTimeline(c *repro.Cluster, one func() error, window time.Duration, warmup int64) (*timeline, error) {
	for i := int64(0); i < warmup; i++ {
		if err := one(); err != nil {
			return nil, fmt.Errorf("tpc: warmup txn %d: %w", i, err)
		}
	}
	c.ResetMeasurement()
	return &timeline{c: c, one: one, window: window}, nil
}

// measure runs transactions for one window of simulated time and appends
// the window. With degraded set, a safety level that refuses service
// (ErrSafetyUnavailable) idles the deployment instead of failing the run,
// so it shows up as an empty or slow window; idle time still heals.
func (tl *timeline) measure(phase string, degraded bool) error {
	c := tl.c
	startC := c.Committed()
	start := c.Elapsed()
	settles := 0
	for c.Elapsed()-start < tl.window {
		if err := tl.one(); err != nil {
			if degraded && errors.Is(err, repro.ErrSafetyUnavailable) {
				if settles++; settles > maxSettles {
					return fmt.Errorf("tpc: %s window: deployment never regained its safety level", phase)
				}
				c.Settle()
				continue
			}
			return fmt.Errorf("tpc: %s window: %w", phase, err)
		}
	}
	end := c.Elapsed()
	tl.cum += end - tl.last
	tl.last = end
	// The committed counter can dip at a takeover (the 1-safe tail died
	// with the old primary): that is an empty window, not a negative one.
	n := int64(c.Committed()) - int64(startC)
	if n < 0 {
		n = 0
	}
	tl.windows = append(tl.windows, Window{
		Phase: phase,
		Start: tl.cum - (end - start),
		Txns:  n,
		TPS:   float64(n) / (end - start).Seconds(),
	})
	return nil
}

// measureN appends n windows of a phase in which refused service is an
// error.
func (tl *timeline) measureN(phase string, n int) error {
	for i := 0; i < n; i++ {
		if err := tl.measure(phase, false); err != nil {
			return err
		}
	}
	return nil
}

// measureWhile appends degraded windows of a phase until active reports
// false, and errors out if it still reports true after limit windows.
func (tl *timeline) measureWhile(phase string, limit int, active func() bool) error {
	for i := 0; i < limit; i++ {
		if err := tl.measure(phase, true); err != nil {
			return err
		}
		if !active() {
			return nil
		}
	}
	return fmt.Errorf("tpc: %s did not complete within %d windows", phase, limit)
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
