package replication

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vista"
)

// Mode selects the backup architecture.
type Mode int

// Backup modes.
const (
	// Standalone runs the server with no backup (paper Table 3).
	Standalone Mode = iota + 1
	// Passive replicates the engine's own structures by write-through
	// doubling; the backup CPUs idle (paper Section 5).
	Passive
	// Active ships a redo log through a circular buffer that each backup
	// CPU applies to its database copy (paper Section 6). The primary
	// runs the best local scheme, Version 3, for its own recoverability.
	Active
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case Standalone:
		return "Standalone"
	case Passive:
		return "Passive"
	case Active:
		return "Active"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Safety selects the commit discipline of a replicated deployment (the
// paper's Section 2.1 discusses 1-safe versus 2-safe; quorum commit is the
// natural middle ground once a group has more than one backup).
type Safety int

// Safety levels.
const (
	// OneSafe returns from Commit at the local commit point; a crash in
	// the next few microseconds may lose the transaction (paper default).
	OneSafe Safety = iota
	// TwoSafe holds Commit until every live backup has applied and
	// acknowledged the transaction: the loss window closes at the price
	// of a SAN round trip to the slowest backup per commit.
	TwoSafe
	// QuorumSafe holds Commit until ceil((K+1)/2) of the K backups have
	// acknowledged: an acked transaction survives the simultaneous loss
	// of the primary and any minority of the backups, and the commit
	// latency is set by the median backup rather than the slowest.
	QuorumSafe
)

// String names the safety level.
func (s Safety) String() string {
	switch s {
	case OneSafe:
		return "1-safe"
	case TwoSafe:
		return "2-safe"
	case QuorumSafe:
		return "quorum"
	default:
		return fmt.Sprintf("Safety(%d)", int(s))
	}
}

// Valid reports whether s is a defined safety level.
func (s Safety) Valid() bool { return s >= OneSafe && s <= QuorumSafe }

// QuorumAcks returns the number of backup acknowledgements QuorumSafe
// requires in a group of k backups: ceil((k+1)/2), capped at k. The
// primary itself is the remaining member of the majority.
func QuorumAcks(k int) int {
	q := (k + 2) / 2
	if q > k {
		q = k
	}
	return q
}

// Config describes a replicated (or standalone) deployment.
type Config struct {
	Mode  Mode
	Store vista.Config
	// Params defaults to sim.Default().
	Params *sim.Params
	// Backups is the replication degree K: the number of backup nodes fed
	// by the primary. Zero means one backup for the replicated modes
	// (the paper's pair); Standalone ignores it.
	Backups int
	// Safety selects the commit discipline (default OneSafe). Anything
	// stronger than OneSafe requires a replicated mode.
	Safety Safety
	// CommitBatch enables group commit: up to CommitBatch transactions
	// committing back to back coalesce into one producer-pointer publish
	// and (under TwoSafe/QuorumSafe) one acknowledgement wait. 0 or 1
	// disables batching, reproducing the per-commit pipeline exactly.
	// Commits sitting in an unflushed batch at a primary crash are lost —
	// the batched generalization of the paper's 1-safe window. Flush,
	// Settle and Repair always ship the open batch.
	CommitBatch int
	// RepairChunk bounds the bytes one background-repair pump ships, so
	// the state transfer interleaves with commits at a fine grain
	// (default 64 KB).
	RepairChunk int
	// Autopilot switches on the unattended failure-detection/response
	// subsystem (heartbeats, lease-guarded auto-failover, self-healing
	// repair). The zero value disables it, leaving every fault to the
	// manual Crash/Failover/Repair calls exactly as before.
	Autopilot AutopilotConfig
	// Durability switches on the per-replica disk tier (redo WAL +
	// snapshots + cold-restart recovery; see durability.go). The zero
	// value disables it: no files are written and the simulation's
	// metrics are bit-for-bit those of a purely memory-replicated group.
	Durability DurabilityConfig
	// Obs attaches a metrics registry and event ring (see internal/obs
	// and obs.go): commit/flush latency histograms, read-routing
	// counters, per-backup lag gauges, and failover/repair/WAL traces.
	// Nil (the default) disables the whole layer: no instrument is
	// registered, no event is emitted, and the simulated metrics are
	// bit-for-bit those of an unobserved group.
	Obs *obs.Registry
}

// TxHandle is the transactional surface shared by all modes; vista.Tx
// satisfies it, and Group.Begin wraps it in a groupTx, which adds redo
// capture and the configured commit-safety wait where the mode has them.
type TxHandle interface {
	// SetRange declares that [off, off+n) of the database may be
	// modified, capturing undo information.
	SetRange(off, n int) error
	// Write stores src at database offset off, in place.
	Write(off int, src []byte) error
	// Read loads database bytes (reads are allowed anywhere).
	Read(off int, dst []byte) error
	// Commit makes the transaction durable under the group's commit
	// safety (1-safe: it does not wait for the backup).
	Commit() error
	// Abort rolls the transaction back.
	Abort() error
}

var _ TxHandle = (*vista.Tx)(nil)

// Group state errors.
var (
	// ErrCrashed is the store's own sentinel: a crash is the same value
	// whether the group, an orphaned handle or a dead node's store meets it.
	ErrCrashed             = vista.ErrCrashed
	ErrNotCrashed          = errors.New("replication: primary still alive")
	ErrNoBackup            = errors.New("replication: no surviving backup")
	ErrActiveNeedV3        = errors.New("replication: active backup requires the Version 3 local scheme")
	ErrSafetyNeedsBackup   = errors.New("replication: 2-safe and quorum commit require a replicated mode")
	ErrSafetyUnavailable   = errors.New("replication: not enough reachable backups for the configured safety level")
	ErrNoSuchBackup        = errors.New("replication: no such backup")
	ErrAutopilotNeedsPeers = errors.New("replication: autopilot requires a replicated mode")
	ErrLeaseExpired        = errors.New("replication: primary lease expired; deposed primary refuses new commits")
	ErrPartitioned         = errors.New("replication: primary is partitioned from the SAN")
)

// regionBase leaves the zero page unmapped so a zero address is always a
// wild pointer.
const regionBase = 8 << 20
