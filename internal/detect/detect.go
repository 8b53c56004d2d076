// Package detect is the failure-detection and membership substrate of the
// autopilot: a per-node heartbeat detector that moves peers through the
// classic Alive → Suspect → Dead lifecycle, and a simulated-time lease that
// lets a deposed primary prove to itself that it must stop serving.
//
// The detector is deliberately ignorant of the replication machinery: it
// sees only named peers and the simulated instants their heartbeats were
// heard. The replication layer owns the semantics of a transition (promote,
// re-enroll, drop) and the traffic accounting of the beats themselves
// (mem.CatControl on the Memory Channel).
//
// # Timing model
//
// Peers beat every Config.HeartbeatPeriod. A peer whose last beat is older
// than four periods (SuspectAfter) is Suspect; one more missed beat — five
// periods of silence (DeadAfter) — confirms it Dead. Transitions are stamped
// with the threshold-crossing instant, not the instant of the Tick that
// observed them: the simulation pumps the detector at commit grain, and
// stamping the crossing keeps detection latency a property of the
// heartbeat period rather than of the pump schedule. The resulting
// bound, for a peer that fails at time F having last beaten at B ≤ F, is
//
//	detectedAt = B + DeadAfter ≤ F + DeadAfter
//
// which is the MTTD guarantee the chaos harness asserts.
package detect

import (
	"fmt"

	"repro/internal/sim"
)

// State is one peer's position in the failure-detection lifecycle.
type State int

// Detector states.
const (
	// Alive means heartbeats are arriving within the suspect timeout.
	Alive State = iota
	// Suspect means the peer has been silent past SuspectAfter: it is
	// excluded from nothing yet, but one more missed beat condemns it.
	Suspect
	// Dead means the peer stayed silent past DeadAfter, one heartbeat
	// period longer: the monitor acts (failover, re-enrollment).
	Dead
)

// String names the state.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// suspectBeats is how many heartbeat periods of silence make a peer
// Suspect.
const suspectBeats = 4

// Config times the detector.
type Config struct {
	// HeartbeatPeriod is the interval between beats.
	HeartbeatPeriod sim.Dur
}

// SuspectAfter returns the silence that makes a peer Suspect.
func (c Config) SuspectAfter() sim.Dur { return suspectBeats * c.HeartbeatPeriod }

// DeadAfter returns the silence that confirms a peer Dead: the suspect
// silence plus one more whole missed beat.
func (c Config) DeadAfter() sim.Dur { return (suspectBeats + 1) * c.HeartbeatPeriod }

// Transition is one observed state change.
type Transition struct {
	Peer string
	From State
	To   State
	// At is the simulated instant the peer crossed the threshold (for
	// Suspect/Dead) or the beat that revived it (for Alive).
	At sim.Time
}

// peerState is the detector's record of one watched peer.
type peerState struct {
	name      string
	lastHeard sim.Time
	state     State
}

// Detector watches a set of named peers. Not safe for concurrent use; the
// owning node drives it under its own serialization (the replica group's
// mutex).
type Detector struct {
	cfg   Config
	peers []*peerState // watch order, for deterministic transition reports
	index map[string]*peerState
}

// New returns an empty detector.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg, index: make(map[string]*peerState)}
}

// Watch enrolls a peer, treating now as its first heartbeat. Re-watching a
// known peer resets it to Alive.
func (d *Detector) Watch(name string, now sim.Time) {
	if p, ok := d.index[name]; ok {
		p.lastHeard, p.state = now, Alive
		return
	}
	p := &peerState{name: name, lastHeard: now}
	d.peers = append(d.peers, p)
	d.index[name] = p
}

// Heartbeat records a beat from the peer at the given instant. A beat
// revives a Suspect or Dead peer (the transition is reported by the next
// Tick as usual state evaluation — a beat IS the evaluation, so the revival
// is applied immediately and returned).
func (d *Detector) Heartbeat(name string, at sim.Time) (Transition, bool) {
	p, ok := d.index[name]
	if !ok {
		return Transition{}, false
	}
	if at > p.lastHeard {
		p.lastHeard = at
	}
	if p.state != Alive {
		tr := Transition{Peer: name, From: p.state, To: Alive, At: at}
		p.state = Alive
		return tr, true
	}
	return Transition{}, false
}

// Tick evaluates every peer against the current simulated time and returns
// the transitions that occurred, in watch order. A peer that sailed past
// both thresholds since the last tick reports only its final transition
// (X → Dead), stamped with the Dead threshold-crossing instant.
func (d *Detector) Tick(now sim.Time) []Transition {
	var out []Transition
	for _, p := range d.peers {
		target, at := d.eval(p, now)
		if target != p.state {
			out = append(out, Transition{Peer: p.name, From: p.state, To: target, At: at})
			p.state = target
		}
	}
	return out
}

// eval returns the state the peer should hold at now, and the instant it
// crossed into it.
func (d *Detector) eval(p *peerState, now sim.Time) (State, sim.Time) {
	silence := sim.Dur(now - p.lastHeard)
	switch {
	case silence >= d.cfg.DeadAfter():
		return Dead, p.lastHeard + sim.Time(d.cfg.DeadAfter())
	case silence >= d.cfg.SuspectAfter():
		return Suspect, p.lastHeard + sim.Time(d.cfg.SuspectAfter())
	default:
		return Alive, p.lastHeard
	}
}

// State returns the peer's current state as of the last Tick/Heartbeat
// (Dead for an unknown peer: a machine the membership does not name is
// simply gone).
func (d *Detector) State(name string) State {
	if p, ok := d.index[name]; ok {
		return p.state
	}
	return Dead
}

// DeadlineFor returns the instant the peer will be declared Dead if it
// stays silent: its last beat plus the dead-after silence.
func (d *Detector) DeadlineFor(name string) sim.Time {
	if p, ok := d.index[name]; ok {
		return p.lastHeard + sim.Time(d.cfg.DeadAfter())
	}
	return 0
}

// Peers returns the watched peer names in watch order.
func (d *Detector) Peers() []string {
	out := make([]string, len(d.peers))
	for i, p := range d.peers {
		out[i] = p.name
	}
	return out
}

// Lease is a simulated-time lease on the right to serve. The primary renews
// it at every heartbeat round it successfully exchanges; a primary that
// cannot renew (partitioned, deposed) watches its own lease run out and
// refuses new commits from that instant — the fencing half of the
// no-split-brain argument. The promotion half is timing: a new primary is
// promoted no earlier than the old one's dead-declaration instant, and the
// lease duration never exceeds that silence (Config.DeadAfter), so the old
// primary has always fenced itself by the time the new one serves.
type Lease struct {
	dur    sim.Dur
	expiry sim.Time
}

// NewLease returns a lease of the given duration, initially renewed at now.
func NewLease(dur sim.Dur, now sim.Time) *Lease {
	return &Lease{dur: dur, expiry: now + sim.Time(dur)}
}

// Renew extends the lease from the given renewal instant. Renewals never
// shorten the lease.
func (l *Lease) Renew(now sim.Time) {
	if e := now + sim.Time(l.dur); e > l.expiry {
		l.expiry = e
	}
}

// Valid reports whether the lease still holds at now.
func (l *Lease) Valid(now sim.Time) bool { return now < l.expiry }

// Expiry returns the instant the lease runs out absent renewal.
func (l *Lease) Expiry() sim.Time { return l.expiry }
