// Package vista implements the paper's transaction server: the RVM-style
// API (begin_transaction, set_range, commit_transaction, abort_transaction;
// Section 2.1) over Rio-style reliable memory, in the four restructured
// versions the paper compares (Section 4):
//
//	Version 0 — Vista's original design: undo records allocated from a
//	            persistent heap and chained on a linked list.
//	Version 1 — mirroring by copying: a set-range coordinate array plus a
//	            full mirror copy of the database, updated by copying the
//	            set-range areas on commit.
//	Version 2 — mirroring by diffing: as Version 1, but on commit the
//	            database and mirror are compared and only differing words
//	            are written to the mirror.
//	Version 3 — improved logging: a bump-pointer undo log holding the
//	            before-images inline with their headers.
//
// One deviation from Vista's raw-pointer interface: application reads and
// writes go through Store/Tx methods instead of direct loads and stores, so
// the simulator can charge cache costs and double writes onto the SAN. The
// set-range discipline is enforced: a transactional write outside every
// declared range is an error.
package vista

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Version selects one of the paper's four engine designs.
type Version int

// Engine versions, numbered as in the paper.
const (
	V0Vista Version = iota
	V1MirrorCopy
	V2MirrorDiff
	V3InlineLog
)

// String returns the paper's name for the version.
func (v Version) String() string {
	switch v {
	case V0Vista:
		return "Version 0 (Vista)"
	case V1MirrorCopy:
		return "Version 1 (Mirror by Copy)"
	case V2MirrorDiff:
		return "Version 2 (Mirror by Diff)"
	case V3InlineLog:
		return "Version 3 (Improved Log)"
	default:
		return fmt.Sprintf("Version(%d)", int(v))
	}
}

// Valid reports whether v is a defined version.
func (v Version) Valid() bool { return v >= V0Vista && v <= V3InlineLog }

// API misuse and resource errors.
var (
	// ErrTxActive is returned by Begin while a transaction is open: the
	// paper's API leaves concurrency control to a separate layer, so a
	// Store serves one transaction at a time.
	ErrTxActive = errors.New("vista: transaction already active")
	// ErrTxDone is returned by operations on a committed or aborted Tx.
	ErrTxDone = errors.New("vista: transaction already completed")
	// ErrOutOfRange is returned by Tx.Write for bytes not covered by any
	// SetRange of the transaction.
	ErrOutOfRange = errors.New("vista: write outside any declared set_range")
	// ErrBounds is returned for accesses outside the database.
	ErrBounds = errors.New("vista: access outside database bounds")
	// ErrUndoFull is returned by a Version 3 SetRange whose before-image
	// does not fit in what is left of the transaction's undo log.
	ErrUndoFull = errors.New("vista: undo log full")
	// ErrCrashed is returned once the store's node has crashed. It is the
	// one crashed sentinel of every layer above — replication and the
	// facade alias it — so its message speaks the facade's language.
	ErrCrashed = errors.New("repro: primary crashed; call Failover")
)

// Config sizes a Store.
type Config struct {
	// Version selects the engine design.
	Version Version
	// DBSize is the database size in bytes (the paper's default is 50 MB).
	DBSize int
	// HeapSize is the Version 0 persistent heap size (default 4 MB).
	HeapSize int
	// LogSize is the Version 3 undo log size (default 1 MB).
	LogSize int
	// SRMax is the Version 1/2 set-range array capacity (default 1024).
	SRMax int
}

// withDefaults fills in unset sizes.
func (c Config) withDefaults() (Config, error) {
	if !c.Version.Valid() {
		return c, fmt.Errorf("vista: invalid version %d", int(c.Version))
	}
	if c.DBSize <= 0 {
		return c, fmt.Errorf("vista: invalid database size %d", c.DBSize)
	}
	if c.HeapSize == 0 {
		c.HeapSize = 4 << 20
	}
	if c.LogSize == 0 {
		c.LogSize = 1 << 20
	}
	if c.SRMax == 0 {
		c.SRMax = 1024
	}
	return c, nil
}

// Region names used by every Store.
const (
	RegionControl = "control"
	RegionDB      = "db"
	RegionHeap    = "heap"
	RegionMirror  = "mirror"
	RegionSRArray = "srarray"
	RegionUndoLog = "undolog"
)

// RegionSpec describes one region a Store needs; the replication layer (or
// the standalone constructor) materializes the specs into two address
// spaces with identical layout.
type RegionSpec struct {
	Name string
	Size int
	// Replicated regions are mapped write-through in the passive
	// primary-backup configuration. The set-range array is deliberately
	// not replicated: the paper's Section 5.1 optimization trades it for
	// a full mirror-to-database copy at takeover.
	Replicated bool
}

// regionAlign keeps region bases L3-sized-aligned so large structures
// (database, mirror) conflict in the direct-mapped board cache exactly as
// same-sized structures would on the real machine.
const regionAlign = 8 << 20

// Layout returns the region set for a configuration, in allocation order.
func Layout(cfg Config) ([]RegionSpec, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	specs := []RegionSpec{
		{Name: RegionControl, Size: 4096, Replicated: true},
		{Name: RegionDB, Size: cfg.DBSize, Replicated: true},
	}
	switch cfg.Version {
	case V0Vista:
		specs = append(specs, RegionSpec{Name: RegionHeap, Size: cfg.HeapSize, Replicated: true})
	case V1MirrorCopy, V2MirrorDiff:
		specs = append(specs,
			RegionSpec{Name: RegionMirror, Size: cfg.DBSize, Replicated: true},
			RegionSpec{Name: RegionSRArray, Size: 16 + 16*cfg.SRMax, Replicated: false},
		)
	case V3InlineLog:
		specs = append(specs, RegionSpec{Name: RegionUndoLog, Size: cfg.LogSize, Replicated: true})
	}
	return specs, nil
}

// dirtyPage is the dirty-tracking granule: the delta of a resumed replica
// is measured and shipped in pages of this size.
const dirtyPage = 4096

// pageStagger offsets successive region bases by an odd number of pages so
// that regions do not artificially collide in page-indexed structures; real
// virtual layouts are not megabyte-aligned across segments.
const pageStagger = 13 * 8 << 10

// PlaceRegions materializes specs into a space starting at the given base,
// returning the first address past the last region (aligned).
func PlaceRegions(space *mem.Space, specs []RegionSpec, base uint64) (uint64, error) {
	clock := new(uint64) // the node's one mark clock
	for i, sp := range specs {
		r, err := mem.NewRegion(sp.Name, base+uint64(i+1)*pageStagger, sp.Size)
		if err != nil {
			return 0, err
		}
		r.WriteThrough = sp.Replicated
		// Every engine region is dirty-tracked so a replica whose memory
		// survived can be delta-resynced: the tracker stamps written pages,
		// and re-enrollment ships only the pages stamped after a commit both
		// sides held (see replication's online repair).
		r.Dirty = mem.NewDirtyLog(sp.Size, dirtyPage, clock)
		if err := space.Add(r); err != nil {
			return 0, err
		}
		base = r.End() + regionAlign - 1
		base &^= regionAlign - 1
		base += regionAlign // guard gap
	}
	return base, nil
}
