package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count (operations, bytes,
// errors). All methods are nil-receiver-safe no-ops, so an instrumented
// component can hold nil instruments when no registry is attached.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed level (window occupancy, backlog,
// per-backup lag). Gauges are state, not accumulation: ResetMeasurement
// clears counters and histograms but leaves gauges in place.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MetricName reports whether name is a legal metric name: lowercase
// dotted identifiers, `^[a-z][a-z0-9_.]*$`. Registration panics on any
// other name.
func MetricName(name string) bool {
	if len(name) == 0 || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' && c != '.' {
			return false
		}
	}
	return true
}

// Registry owns a deployment's instruments and its event ring. All
// registration happens at component construction (cold, under a lock);
// the returned instrument pointers are then recorded through with plain
// atomics, so the hot paths never touch the registry again. A nil
// *Registry is the off switch: every method no-ops (registrations
// return nil instruments, which are themselves no-ops), and the
// instrumented code paths stay bit-for-bit identical to the
// pre-observability behavior.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	window   uint64 // bumped by Reset; stamps snapshots so scrape deltas detect window cuts
	ring     Ring
}

// NewRegistry returns an empty registry with an empty event ring.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// register validates name and uniqueness across all instrument kinds.
// Invalid or cross-kind duplicate names are programmer errors and
// panic; same-kind re-registration returns the existing instrument.
func (r *Registry) register(name, kind string) {
	if !MetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want ^[a-z][a-z0-9_.]*$)", name))
	}
	var clash string
	switch {
	case kind != "counter" && r.counters[name] != nil:
		clash = "counter"
	case kind != "gauge" && r.gauges[name] != nil:
		clash = "gauge"
	case kind != "hist" && r.hists[name] != nil:
		clash = "hist"
	}
	if clash != "" {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s", name, clash))
	}
}

// Counter registers (or returns the already-registered) counter name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "counter")
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or returns the already-registered) gauge name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "gauge")
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist registers (or returns the already-registered) histogram name.
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "hist")
	h := r.hists[name]
	if h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Emit appends a structured event to the registry's ring. Safe on a nil
// registry; allocation-free (kind must be a constant or otherwise
// retained string).
func (r *Registry) Emit(kind string, at int64, node int, a, b uint64) {
	if r == nil {
		return
	}
	r.ring.Emit(kind, at, node, a, b)
}

// Reset zeroes every counter and histogram and bumps the window epoch —
// the ResetMeasurement hook. Gauges (instantaneous state) and the event
// ring (a timeline, like the FailureEvent record) are left in place.
// Reset holds the registry lock, so it is atomic with respect to
// Snapshot: a scrape sees either the old window or the new one, never a
// half-cleared mix.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, h := range r.hists {
		h.Reset()
	}
	r.window++
}

// Snapshot captures every instrument and the event ring into a
// serializable copy. Scrape-path only: it allocates freely.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Window: r.window}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.v.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.v.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Hists[n] = h.Snapshot()
		}
	}
	s.Events = r.ring.Snapshot(nil)
	return s
}
