package replication

import "repro/internal/sim"

// TransferRate returns the copier's budget rate in bytes per unit of
// simulated time, for the tests that hold its charges to it.
func (g *Group) TransferRate() float64 { return g.repairRate() }

// SetBackupEpochForTest regresses backup i onto an arbitrary membership
// epoch — white-box access for the epoch-fencing tests, which need a
// replica that "missed" a membership change without rebuilding one.
func (g *Group) SetBackupEpochForTest(i, epoch int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i >= 0 && i < len(g.backups) {
		g.backups[i].epoch = epoch
	}
}

// Busy returns the node's busy time: the records it applied and the reads
// it served as a backup.
func (n *Node) Busy() sim.Time { return n.busy.Now() }

// AckedAt returns the measured interval's outstanding acknowledgement
// instant: the latest a seal left in flight, zero before any.
func (g *Group) AckedAt() sim.Time { return g.servingRef.Load().acked.Now() }
