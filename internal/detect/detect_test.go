package detect

import (
	"testing"

	"repro/internal/sim"
)

var cfg = Config{HeartbeatPeriod: 50 * sim.Microsecond}

func TestLifecycleThresholds(t *testing.T) {
	if cfg.SuspectAfter() != 200*sim.Microsecond || cfg.DeadAfter() != 250*sim.Microsecond {
		t.Fatalf("suspect/dead after %v/%v, want four and five 50µs beats", cfg.SuspectAfter(), cfg.DeadAfter())
	}
	d := New(cfg)
	d.Watch("b0", 0)

	if got := d.State("b0"); got != Alive {
		t.Fatalf("fresh peer state = %v, want alive", got)
	}
	// Beats keep it alive.
	for at := sim.Time(0); at < sim.Time(1*sim.Millisecond); at += sim.Time(cfg.HeartbeatPeriod) {
		d.Heartbeat("b0", at)
		if trs := d.Tick(at + sim.Time(cfg.HeartbeatPeriod)/2); len(trs) != 0 {
			t.Fatalf("spurious transitions while beating: %v", trs)
		}
	}
	last := d.DeadlineFor("b0") - sim.Time(cfg.DeadAfter())
	if want := sim.Time(1*sim.Millisecond) - sim.Time(cfg.HeartbeatPeriod); last != want {
		t.Fatalf("last beat %v, want %v", last, want)
	}

	// Silence past SuspectAfter: suspect, stamped at the crossing.
	trs := d.Tick(last + sim.Time(cfg.SuspectAfter()) + 1)
	if len(trs) != 1 || trs[0].To != Suspect {
		t.Fatalf("transitions = %v, want one ->suspect", trs)
	}
	if trs[0].At != last+sim.Time(cfg.SuspectAfter()) {
		t.Fatalf("suspect stamped %v, want %v", trs[0].At, last+sim.Time(cfg.SuspectAfter()))
	}

	// One more missed beat: dead.
	trs = d.Tick(last + sim.Time(cfg.DeadAfter()) + 1)
	if len(trs) != 1 || trs[0].To != Dead {
		t.Fatalf("transitions = %v, want one ->dead", trs)
	}
	if trs[0].At != last+sim.Time(cfg.DeadAfter()) {
		t.Fatalf("dead stamped %v, want %v", trs[0].At, last+sim.Time(cfg.DeadAfter()))
	}
	if d.DeadlineFor("b0") != last+sim.Time(cfg.DeadAfter()) {
		t.Fatalf("DeadlineFor = %v, want %v", d.DeadlineFor("b0"), last+sim.Time(cfg.DeadAfter()))
	}
}

func TestSkippedSuspectReportsOnlyDead(t *testing.T) {
	d := New(cfg)
	d.Watch("b0", 0)
	// A tick far past both thresholds reports the final transition only.
	trs := d.Tick(sim.Time(10 * sim.Millisecond))
	if len(trs) != 1 || trs[0].From != Alive || trs[0].To != Dead {
		t.Fatalf("transitions = %v, want exactly alive->dead", trs)
	}
}

func TestHeartbeatRevives(t *testing.T) {
	d := New(cfg)
	d.Watch("b0", 0)
	d.Tick(sim.Time(10 * sim.Millisecond)) // dead
	tr, ok := d.Heartbeat("b0", sim.Time(11*sim.Millisecond))
	if !ok || tr.From != Dead || tr.To != Alive {
		t.Fatalf("revival = %v ok=%v, want dead->alive", tr, ok)
	}
	if d.State("b0") != Alive {
		t.Fatalf("state after revival = %v", d.State("b0"))
	}
}

func TestUnknownPeer(t *testing.T) {
	d := New(cfg)
	d.Watch("b1", 0)
	if d.State("b0") != Dead {
		t.Fatalf("unknown peer state = %v, want dead", d.State("b0"))
	}
	if _, ok := d.Heartbeat("b0", 1); ok {
		t.Fatal("heartbeat from an unwatched peer should be ignored")
	}
	if got := d.Peers(); len(got) != 1 || got[0] != "b1" {
		t.Fatalf("peers after an unknown beat = %v", got)
	}
}

func TestLeaseFencing(t *testing.T) {
	l := NewLease(cfg.DeadAfter(), 0)
	if !l.Valid(0) {
		t.Fatal("fresh lease invalid")
	}
	if l.Valid(sim.Time(cfg.DeadAfter())) {
		t.Fatal("lease valid at its own expiry")
	}
	l.Renew(sim.Time(cfg.HeartbeatPeriod))
	want := sim.Time(cfg.HeartbeatPeriod) + sim.Time(cfg.DeadAfter())
	if l.Expiry() != want {
		t.Fatalf("expiry after renew = %v, want %v", l.Expiry(), want)
	}
	// Renewals never shorten.
	l.Renew(0)
	if l.Expiry() != want {
		t.Fatalf("stale renew shortened lease: %v", l.Expiry())
	}

	// The no-split-brain inequality: for any last beat B, the lease the
	// primary renewed at B expires no later than the instant a detector
	// that last heard it at B declares it dead.
	d := New(cfg)
	d.Watch("p", 7)
	lp := NewLease(cfg.DeadAfter(), 7)
	if lp.Expiry() > d.DeadlineFor("p") {
		t.Fatalf("lease %v outlives dead declaration %v", lp.Expiry(), d.DeadlineFor("p"))
	}
}
