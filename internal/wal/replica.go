package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Replica is one node's durability writer: an open WAL segment plus the
// checkpoint machinery. It is not safe for concurrent use — the
// replication layer drives it under the replica group's mutex.
//
// Append only buffers; Sync writes-and-fsyncs the buffered frames in one
// call (the group-commit piggyback). Checkpoint snapshots the committed
// image, rotates to a fresh segment and prunes superseded files.
type Replica struct {
	dir     string
	f       *os.File
	era     uint32
	base    uint64 // first sequence position of the current segment
	seq     uint64 // last appended sequence
	synced  uint64 // last sequence covered by an fsync
	size    int64  // bytes written to the current segment
	syncedB int64  // bytes of the current segment covered by an fsync
	nextGen uint64
	pending []byte

	// Hook, when set, is called at named failpoints ("sync",
	// "snap-partial", "snap-before-rename", "snap-after-rename",
	// "rotate-before-create", "rotate-before-delete"); a non-nil return
	// aborts the operation mid-flight, simulating a crash at that
	// instant. Test-only.
	Hook func(op string) error

	// obs is the attached instrument set (see Attach); nil when
	// uninstrumented.
	obs *walObs
}

// NewReplica opens (creating if needed) a replica durability directory.
// The rotation clock resumes past the highest generation already on
// disk, so file names stay unique across restarts.
func NewReplica(dir string) (*Replica, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	r := &Replica{dir: dir}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range ents {
		if _, _, _, gen, ok := parseName(e.Name()); ok && gen >= r.nextGen {
			r.nextGen = gen + 1
		}
	}
	return r, nil
}

// SegmentPath returns the current segment's path ("" before Start).
func (r *Replica) SegmentPath() string {
	if r.f == nil {
		return ""
	}
	return r.f.Name()
}

// SyncedSeq returns the last commit sequence an fsync has covered:
// the durable prefix a recovery is guaranteed to reproduce.
func (r *Replica) SyncedSeq() uint64 { return r.synced }

// SyncedBytes returns how many bytes of the current segment are covered
// by an fsync; bytes past this offset may be torn by a power loss.
func (r *Replica) SyncedBytes() int64 { return r.syncedB }

func (r *Replica) hook(op string) error {
	if r.Hook != nil {
		return r.Hook(op)
	}
	return nil
}

// Start opens a fresh segment at (era, seq) without writing a snapshot —
// the fresh-directory case, where the implicit base image is all zeroes
// at sequence zero.
func (r *Replica) Start(era uint32, seq uint64) error {
	return r.openSegment(era, seq)
}

func (r *Replica) openSegment(era uint32, base uint64) error {
	if err := r.hook("rotate-before-create"); err != nil {
		return err
	}
	gen := r.nextGen
	f, err := os.OpenFile(filepath.Join(r.dir, segName(era, base, gen)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	r.nextGen = gen + 1
	if r.f != nil {
		r.f.Close()
	}
	r.f, r.era, r.base = f, era, base
	r.seq, r.synced = base, base
	r.size, r.syncedB = 0, 0
	r.pending = r.pending[:0]
	return syncDir(r.dir)
}

// Append buffers one encoded frame; seq is the commit sequence after it.
// Nothing touches the disk until Sync.
func (r *Replica) Append(frame []byte, seq uint64) {
	r.pending = append(r.pending, frame...)
	r.seq = seq
}

// Sync writes the buffered frames and fsyncs the segment — the one
// fdatasync a sealed commit batch pays. A no-op when nothing is pending.
func (r *Replica) Sync() error {
	if r.f == nil {
		if len(r.pending) > 0 {
			return errors.New("wal: append before Start")
		}
		return nil
	}
	if len(r.pending) == 0 && r.size == r.syncedB {
		return nil
	}
	if err := r.hook("sync"); err != nil {
		return err
	}
	var start time.Time
	if r.obs != nil {
		start = time.Now()
	}
	if len(r.pending) > 0 {
		n, err := r.f.Write(r.pending)
		r.size += int64(n)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		r.pending = r.pending[:0]
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	newBytes := r.size - r.syncedB
	r.syncedB = r.size
	r.synced = r.seq
	if r.obs != nil {
		r.obs.observeSync(start, newBytes, r.synced)
	}
	return nil
}

// Checkpoint makes the WAL durable through seq, writes a snapshot of the
// committed image (write-to-temp, fsync, rename — a torn snapshot can
// never carry a final name), rotates to a fresh segment and prunes
// superseded files. data must be the committed image at exactly seq.
func (r *Replica) Checkpoint(era uint32, seq uint64, data []byte) error {
	// Durable WAL first: if the snapshot below is torn by a crash,
	// recovery falls back to the previous snapshot plus these records.
	if err := r.Sync(); err != nil {
		return err
	}
	gen := r.nextGen // the segment this checkpoint will open
	tmp := filepath.Join(r.dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := encodeSnapHeader(era, seq, gen, data)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if herr := r.hook("snap-partial"); herr != nil {
		// Simulated crash mid-snapshot: leave a torn temporary behind.
		f.Write(data[:len(data)/2])
		f.Close()
		return herr
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := r.hook("snap-before-rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(r.dir, snapName(era, seq, gen))); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(r.dir); err != nil {
		return err
	}
	if err := r.hook("snap-after-rename"); err != nil {
		return err
	}
	if err := r.openSegment(era, seq); err != nil {
		return err
	}
	if r.obs != nil {
		r.obs.observeRotate(seq)
	}
	if err := r.hook("rotate-before-delete"); err != nil {
		return err
	}
	return r.removeStale()
}

// removeStale keeps the two newest snapshots (the newest plus one
// fallback) and every segment the fallback may need, deleting the rest.
func (r *Replica) removeStale() error {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var snapGens []uint64
	for _, e := range ents {
		if kind, _, _, gen, ok := parseName(e.Name()); ok && kind == "snap" {
			snapGens = append(snapGens, gen)
		}
	}
	if len(snapGens) <= 1 {
		return nil
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	keepGen := snapGens[1] // the fallback snapshot's generation
	for _, e := range ents {
		kind, _, _, gen, ok := parseName(e.Name())
		if !ok {
			continue
		}
		// A segment with gen < keepGen holds only records the fallback
		// snapshot already covers; a snapshot older than the fallback is
		// a third-newest copy.
		if (kind == "wal" && gen < keepGen) || (kind == "snap" && gen < keepGen) {
			if err := os.Remove(filepath.Join(r.dir, e.Name())); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	return syncDir(r.dir)
}

// Abandon simulates power loss: buffered frames are handed to the OS
// without an fsync and the file is closed. Bytes past SyncedBytes()
// carry no durability guarantee — the scenario layer corrupts them to
// model torn writes.
func (r *Replica) Abandon() {
	if r.f == nil {
		return
	}
	if len(r.pending) > 0 {
		r.f.Write(r.pending)
		r.pending = r.pending[:0]
	}
	r.f.Close()
	r.f = nil
}

// Close syncs outstanding frames and closes the segment.
func (r *Replica) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.Sync()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	r.f = nil
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best-effort on platforms that refuse directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
