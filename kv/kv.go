// Package kv is a replicated key-value store laid out inside the bytes of
// a repro.DB. The index — open-addressed hash tables with linear probing —
// and the record heap — slabs of fixed-size slots — both live in the
// replicated database itself and are mutated only through the DB's
// transactional SetRange/Write path, so the entire keyspace inherits the
// deployment's fault tolerance with zero new replication code: crash the
// primary at any instant, fail over, Open the survivor, and every
// acknowledged Put is readable (at quorum or 2-safe commit; 1-safe keeps
// the paper's lost-window semantics, now observable at the key level).
//
// # Layout
//
// The database is carved into regions that are exactly the deployment's
// placement partitions (repro.DB.PartSize): region r is the bytes
// [r*PartSize, (r+1)*PartSize), which live on one shard at every placement
// epoch because a rebalance moves partitions whole. Every region has the
// same shape:
//
//	[0, 64)              region 0: header (magic, geometry); else unused
//	[64, slabOff)        bucket array: one 8-byte word per bucket
//	[slabOff, ...)       slot slab: fixed-size key+value records
//
// A key belongs to one region, chosen from finalised hash bits that are
// independent of its bucket index inside the region; its bucket word and
// its record both live there, and nothing is ever borrowed from another
// region. A bucket word is 0 (empty), 1 (tombstone) or slotIndex+2 (live),
// the slot index counting across all regions. A slot holds an 8-byte
// record header (key length, value length) followed by the key and value
// bytes. A region's bucket count is a power of two at least twice its slot
// count, so no table's load factor exceeds one half. A database tail
// shorter than a partition is unused.
//
// # Crash consistency
//
// Every mutation is confined to one region and therefore to one replica
// group, and commits there atomically inside the store's one open
// transaction on the underlying DB — its own for Put and Delete, its Txn's
// for a multi-key Txn, its Burst's shared one inside a Burst: an insert
// writes the record and flips its bucket word together, an overwrite
// rewrites the record in the slot it already has (when its length is
// unchanged, only the bytes of the value that differ: every replica holds
// the rest), a delete tombstones the bucket word. The replication layer
// guarantees a committed prefix per group, so after any crash and failover
// a key reads the whole of its last surviving mutation — there is no
// intermediate state for a crash to expose and nothing for recovery to
// reclaim. A Txn's keys are atomic where they share a shard, per shard
// otherwise (see Txn). Open still validates every reachable bucket (slot
// range and region, record-header sanity, the key's own region, duplicate
// references and duplicate keys) and refuses the store with ErrBadFormat
// at the first that fails: no crash of this package's produces one, so
// such bytes were written by something else, and recovery does not guess.
//
// A Burst (burst.go) stretches the unit of commit and of acknowledgement
// from one mutation to a run of them: its mutations share one transaction,
// which Seal commits — one redo record on each shard they touched — and
// whose acknowledgement wait Seal pays once per such shard. Between that
// commit and the seal a write is where a 1-safe write always is —
// committed on the primary, named to no backup — so the committed-prefix
// argument above still gives the survivor a consistent store; what changes
// is who may see it. The burst holds the store until the seal, so nobody
// reads such a write; a primary death before the seal fails it, that shard
// admits nothing further from the burst (no later mutation lands on a
// survivor lacking the earlier ones), the Store breaks as for a failed
// Commit, and after Reopen the dead shard's keys read what they held
// before the burst. Put, Delete and Txn.Commit called directly are not
// bursts: each is its own transaction, acknowledged when it returns.
//
// # Errors
//
//	Call            Errors
//	----            ------
//	Open            ErrBadFormat, ErrTooSmall, plus repro errors
//	Get             ErrNotFound, ErrEmptyKey, ErrBroken, repro.ErrCrashed
//	Put             ErrTooLarge, ErrEmptyKey, ErrFull (inserts only),
//	                ErrBroken, repro.ErrCrashed, repro.ErrSafetyUnavailable
//	Delete          ErrNotFound, ErrEmptyKey, ErrBroken, repro errors
//	Scan            ErrBroken, repro.ErrCrashed
//	Txn.Commit      ErrTxnDone plus everything Put and Delete return, and
//	                repro.ErrUndoFull (nothing applied, the Store still
//	                usable)
//	Reopen          ErrBadFormat plus repro errors
//	Burst.Seal      repro.ErrCrashed or ErrBroken (the burst's writes
//	                are lost; the Store is broken),
//	                repro.ErrSafetyUnavailable
//
// A repro.ErrSafetyUnavailable from Put, Delete or Txn.Commit means the
// mutation is durable on the serving node but its acknowledgement
// discipline was not met — the key-level analogue of the facade's
// degraded commit. After repro.ErrCrashed the Store is broken: fail the
// deployment over and Open it again, or call Reopen on the existing
// handle to re-run the same recovery in place (what a long-lived server
// does after the autopilot promotes a survivor).
package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro"
)

// Store errors.
var (
	// ErrBadFormat is returned by Open when the database bytes are
	// neither zeroed (formattable) nor a kv store laid out for this
	// deployment, or hold a reachable record recovery cannot trust (the
	// error names its region and bucket), and by Reopen for such a record
	// or when the persisted header no longer matches the geometry the Store
	// was opened with.
	ErrBadFormat = errors.New("kv: database bytes are not a kv store")
	// ErrTooSmall is returned by Open when the database cannot hold one
	// region with the header, a minimal bucket array and at least one
	// slot.
	ErrTooSmall = errors.New("kv: database too small for a kv store")
	// ErrEmptyKey is returned for a zero-length key.
	ErrEmptyKey = errors.New("kv: empty key")
	// ErrTooLarge is returned by Put when key+value exceed the slot
	// payload (SlotPayload bytes).
	ErrTooLarge = errors.New("kv: key+value exceed the slot payload")
	// ErrFull is returned by Put when the new key's region has no free
	// slot; nothing is borrowed from another region, so it can come back
	// while Len is below Slots. Only an insert can meet it: an overwrite
	// rewrites the record in the slot the key already has and succeeds in
	// a full region. A Delete in the region makes room for one insert
	// there.
	ErrFull = errors.New("kv: the key's region is full")
	// ErrNotFound is returned by Get and Delete for an absent key.
	ErrNotFound = errors.New("kv: key not found")
	// ErrBroken is returned once a commit failed mid-operation (the
	// primary crashed under the store): the in-memory index may be ahead
	// of the database. Fail over and Open the database again.
	ErrBroken = errors.New("kv: store invalidated by a failed commit; Open the database again")
	// ErrTxnDone is returned by operations on a committed or aborted
	// Txn.
	ErrTxnDone = errors.New("kv: transaction already completed")
)

// Layout constants. The header is one 64-byte line at the front of region
// 0: an 8-byte magic followed by five 8-byte geometry words. Every region
// keeps its first headerSize bytes clear so all regions share one shape.
const (
	headerSize  = 64
	bucketWidth = 8
	slotHeader  = 8 // key length u32 + value length u32

	hMagic    = 0
	hPartSize = 8
	hRegions  = 16
	hSlotSize = 24
	hBuckets  = 32
	hSlots    = 40
)

// magic identifies a formatted store; the trailing digit versions the
// layout.
var magic = []byte("REPROKV2")

// Bucket-word states; a live word is slotIndex+bucketBase.
const (
	bucketEmpty = 0
	bucketTomb  = 1
	bucketBase  = 2
)

// DefaultSlotSize is the record slot size Open formats with: an 8-byte
// record header plus up to 248 bytes of key+value.
const DefaultSlotSize = 256

// Options tunes Open's format-time geometry. Opening an already
// formatted store ignores it (geometry is read from the header).
type Options struct {
	// SlotSize is the fixed record slot size in bytes (default
	// DefaultSlotSize, minimum 64). Key length + value length is capped
	// at SlotSize-8.
	SlotSize int
}

// geometry is the persisted layout, cached from the header and immutable
// once the Store is open. Bucket and slot indices count across regions:
// bucket b is bucket b%buckets of region b/buckets, and likewise slots.
type geometry struct {
	partSize uint64 // region stride: the deployment's placement partition
	regions  uint64
	slotSize uint64
	buckets  uint64 // per region, a power of two
	slots    uint64 // per region
}

func (g geometry) bucketOff(b uint64) int {
	return int(b/g.buckets*g.partSize + headerSize + b%g.buckets*bucketWidth)
}

func (g geometry) slotOff(i uint64) int {
	return int(i/g.slots*g.partSize + headerSize + g.buckets*bucketWidth + i%g.slots*g.slotSize)
}

func (g geometry) payload() int { return int(g.slotSize) - slotHeader }

// place returns key's region and its natural bucket there. FNV-1a's raw
// upper bits cluster for keys that differ only in their last bytes, so
// both come from the finalised hash: the region from its top bits
// (multiply-shift), the bucket from its low bits.
func (g geometry) place(key []byte) (region, bucket uint64) {
	h := mix(hash(key))
	region, _ = bits.Mul64(h, g.regions)
	return region, h & (g.buckets - 1)
}

// Store is a key-value view over a repro.DB. All state of record lives in
// the replicated database bytes; the Store itself holds only derived
// acceleration (the free-slot lists and live counters), rebuilt by Open.
// A Store is safe for concurrent use; operations serialize on its mutex
// (the underlying deployment runs one transaction at a time per shard
// anyway). Once any operation observes the deployment crashed, the Store
// is broken — fail over and Open again. An unattended takeover
// (Config.Autopilot with AutoFailover) surfaces no error the Store can
// observe, so a caller running the autopilot at 1-safe must watch the
// deployment's AutopilotEvents (or Generation) and re-Open after a
// takeover before issuing more writes; at quorum or 2-safe the
// survivor's bytes match everything the Store acknowledged, and
// continuing is safe.
type Store struct {
	mu     sync.Mutex
	db     repro.DB
	geo    geometry   // set by Open, never assigned again: read without mu
	free   [][]uint32 // per region: its free slot indices, LIFO
	live   int        // live keys
	tombs  int        // tombstoned buckets
	broken bool

	// scratch buffers recycled across operations.
	word [bucketWidth]byte
	hdr  [slotHeader]byte
	kbuf []byte
	vbuf []byte

	// readPrimary is db.Read bound once, so the mutations' probes stay
	// allocation-free; vw/vwRead are the recycled read view every lookup
	// and scan reads through (valid under mu, like the scratch buffers).
	readPrimary readFn
	vw          view
	vwRead      readFn

	// open is the transaction mutations run in; readOpen is readTx bound
	// once, the probes' route through it.
	open     sharedTx
	readOpen readFn
}

// Open opens (or, on an all-zero database, formats) a key-value store
// over db with default options. Recovery is Open: after a crash and
// failover, Open on the promoted survivor rebuilds the store from the
// replicated bytes, validating every reachable record.
func Open(db repro.DB) (*Store, error) { return OpenWith(db, Options{}) }

// OpenWith opens or formats a store with explicit options.
func OpenWith(db repro.DB, opt Options) (*Store, error) {
	if opt.SlotSize == 0 {
		opt.SlotSize = DefaultSlotSize
	}
	if opt.SlotSize < 64 {
		return nil, fmt.Errorf("kv: slot size %d below the 64-byte minimum", opt.SlotSize)
	}
	s := &Store{db: db}
	s.readPrimary = db.Read
	s.readOpen = s.readTx
	s.vwRead = s.vw.read
	s.vw.s = s
	var head [headerSize]byte
	if db.DBSize() < headerSize {
		return nil, ErrTooSmall
	}
	db.ReadRaw(0, head[:])
	var err error
	if head == [headerSize]byte{} {
		err = s.format(opt)
	} else if s.geo, err = parseHeader(db, head[:]); err == nil {
		err = s.recover()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Reopen re-runs Open-time recovery in place: it probes every shard that
// holds a region for admission (which pumps the autopilot, so a dead primary
// with AutoFailover configured is promoted by the probe itself), checks the
// persisted header against the geometry the Store was opened with and
// rebuilds the in-memory acceleration from the replicated bytes, clearing
// the broken flag — exactly what a fresh Open would do, without
// invalidating the handle callers hold. Geometry never changes after
// Open, so Reopen assigns none: a header that differs is ErrBadFormat.
//
// It is the serving-path heal: a Store that observed ErrBroken after a
// primary crash (or a lease-fenced deposition) becomes usable again once
// the cluster has failed over, with every acknowledged mutation intact.
// If the deployment still is not servable — no failover yet, lease still
// expired, safety level unmet — Reopen returns that error and the Store
// stays broken; retry after the cluster heals. A store whose bytes recovery
// refuses (ErrBadFormat) is broken until a Reopen accepts them.
func (s *Store) Reopen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, err := s.db.Begin()
	if err != nil {
		return err
	}
	// Begin opens nothing on several shards (it is lazy there): one byte of
	// every region — a region is one shard's at every epoch — takes the
	// probe to each shard that holds keys.
	var head [headerSize]byte
	for r := uint64(0); err == nil && s.db.Shards() > 1 && r < s.geo.regions; r++ {
		err = tx.Read(int(r*s.geo.partSize), head[:1])
	}
	if aerr := tx.Abort(); err == nil {
		err = aerr
	}
	if err != nil {
		return err
	}
	s.db.ReadRaw(0, head[:])
	if g, err := parseHeader(s.db, head[:]); err != nil {
		return err
	} else if g != s.geo {
		return fmt.Errorf("kv: header geometry changed under an open store: %w", ErrBadFormat)
	}
	err = s.recover()
	s.broken = err != nil
	return err
}

// format computes the geometry for the deployment and persists the header
// in one transaction. The bucket arrays and slabs are already zero (empty)
// on a fresh database.
func (s *Store) format(opt Options) error {
	geo, err := computeGeometry(s.db, opt.SlotSize)
	if err != nil {
		return err
	}
	s.geo = geo
	tx, err := s.openTx()
	if err == nil {
		err = write(tx, 0, geo.header())
	}
	if err != nil {
		return s.lose(err)
	}
	s.resetFree(nil)
	return s.end()
}

// header encodes the persisted header.
func (g geometry) header() []byte {
	head := make([]byte, headerSize)
	copy(head[hMagic:], magic)
	binary.LittleEndian.PutUint64(head[hPartSize:], g.partSize)
	binary.LittleEndian.PutUint64(head[hRegions:], g.regions)
	binary.LittleEndian.PutUint64(head[hSlotSize:], g.slotSize)
	binary.LittleEndian.PutUint64(head[hBuckets:], g.buckets)
	binary.LittleEndian.PutUint64(head[hSlots:], g.slots)
	return head
}

// parseHeader decodes a persisted header. Geometry is a function of the
// deployment and the slot size, so the only header accepted is the one
// format would write for this deployment at the slot size it names.
func parseHeader(db repro.DB, head []byte) (geometry, error) {
	slotSize := binary.LittleEndian.Uint64(head[hSlotSize:])
	if bytes.Equal(head[hMagic:hMagic+8], magic) && slotSize >= 64 && slotSize <= uint64(db.PartSize()) {
		if g, err := computeGeometry(db, int(slotSize)); err == nil && bytes.Equal(head, g.header()) {
			return g, nil
		}
	}
	return geometry{}, ErrBadFormat
}

// computeGeometry makes every whole placement partition of db a region and
// carves one region into the reserved head, a power-of-two bucket array
// and a slot slab, keeping the bucket count at least twice the slot count
// so the load factor never exceeds one half.
func computeGeometry(db repro.DB, slotSize int) (geometry, error) {
	part := db.PartSize()
	usable := part - headerSize
	slots := usable / slotSize
	var buckets int
	for i := 0; i < 64; i++ {
		buckets = nextPow2(2 * slots)
		if buckets < 8 {
			buckets = 8
		}
		fit := (usable - buckets*bucketWidth) / slotSize
		if fit >= slots {
			break
		}
		slots = fit
	}
	regions := db.DBSize() / part
	if slots < 1 || regions < 1 {
		return geometry{}, ErrTooSmall
	}
	return geometry{
		partSize: uint64(part),
		regions:  uint64(regions),
		slotSize: uint64(slotSize),
		buckets:  uint64(buckets),
		slots:    uint64(slots),
	}, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// hash is FNV-1a 64.
func hash(key []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// mix is the 64-bit finaliser of MurmurHash3: every output bit depends on
// every input bit.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// resetFree rebuilds the per-region free lists from a used-slot set (nil =
// all free). Region r hands its slots out in slab order starting r/regions
// of the way through its slab, wrapping: regions sit at a power-of-two
// stride, and without the rotation the first slots of every region would
// contend for the same sets of a direct-mapped or few-way cache.
func (s *Store) resetFree(used []bool) {
	g := s.geo
	if s.free == nil {
		backing := make([]uint32, g.regions*g.slots)
		s.free = make([][]uint32, g.regions)
		for r := range s.free {
			lo := uint64(r) * g.slots
			s.free[r] = backing[lo : lo : lo+g.slots]
		}
	}
	for r := range s.free {
		base := uint64(r) * g.slots
		first := base / g.regions // r*slots/regions
		f := s.free[r][:0]
		// LIFO: push in reverse of the hand-out order.
		for k := g.slots; k > 0; k-- {
			i := base + (first+k-1)%g.slots
			if used == nil || !used[i] {
				f = append(f, uint32(i))
			}
		}
		s.free[r] = f
	}
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Slots returns the record-slot capacity of the store, summed over its
// regions; a region fills on its own (see ErrFull).
func (s *Store) Slots() int { return int(s.geo.regions * s.geo.slots) }

// SlotPayload returns the maximum key length + value length one record
// can hold.
func (s *Store) SlotPayload() int { return s.geo.payload() }

// Buckets returns the index size, summed over the regions (for
// observability and tests).
func (s *Store) Buckets() int { return int(s.geo.regions * s.geo.buckets) }

// DB returns the underlying deployment.
func (s *Store) DB() repro.DB { return s.db }

// fail records a broken commit path: the in-memory index can no longer be
// trusted against the database bytes.
func (s *Store) fail(err error) error {
	if errors.Is(err, repro.ErrSafetyUnavailable) {
		// The mutation is durable on the serving node; only the
		// acknowledgement discipline failed. The index is still correct.
		return err
	}
	s.broken = true
	return err
}

// observe inspects an error flowing out of any operation: once the
// deployment is seen crashed, the Store marks itself broken — after the
// failover the survivor's bytes may sit behind the in-memory free lists
// (a 1-safe loss window), so continuing to allocate from them could
// overwrite reachable records. Re-Open rebuilds the index from the
// recovered bytes. (An unattended autopilot takeover that surfaces no
// error at all cannot be caught here; see the package comment.)
func (s *Store) observe(err error) error {
	if errors.Is(err, repro.ErrCrashed) || errors.Is(err, repro.ErrLeaseExpired) {
		// A lease expiry is a deposition: the surviving majority may
		// already serve behind a takeover this Store never saw.
		s.broken = true
	}
	return err
}

// write declares and writes one range inside tx.
func write(tx repro.Tx, off int, src []byte) error {
	if err := tx.SetRange(off, len(src)); err != nil {
		return err
	}
	return tx.Write(off, src)
}

// readFn is one operation's charged-read routing: the primary's
// serialized read (Store.readPrimary), a transaction's own read (Txn), or
// a replica read view (see readat.go). Injected so the probe and scan
// walks are identical — same offsets, same charges — wherever they are
// served.
type readFn func(off int, dst []byte) error

// readBucket reads bucket b's word with a charged read.
func (s *Store) readBucket(rd readFn, b uint64) (uint64, error) {
	if err := rd(s.geo.bucketOff(b), s.word[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(s.word[:]), nil
}

// readSlotHeader reads slot i's record header with a charged read.
func (s *Store) readSlotHeader(rd readFn, i uint64) (keyLen, valLen int, err error) {
	if err := rd(s.geo.slotOff(i), s.hdr[:]); err != nil {
		return 0, 0, err
	}
	return int(binary.LittleEndian.Uint32(s.hdr[:4])), int(binary.LittleEndian.Uint32(s.hdr[4:])), nil
}

// probeResult is where a key's probe ended.
type probeResult struct {
	found      bool
	region     uint64 // the key's region
	bucket     uint64 // the key's bucket (found) — else the insert position
	slot       uint64 // the key's slot (found; an insert's, once allocated)
	valLen     int    // the record's value length (found only)
	reusedTomb bool   // the insert position is a tombstone
	full       bool   // no insert position exists
}

// probe walks key's chain around its region's bucket array from its
// natural bucket: first matching live entry wins; the insert position is
// the first tombstone seen, else the terminating empty bucket.
func (s *Store) probe(rd readFn, key []byte) (probeResult, error) {
	g := &s.geo
	region, start := g.place(key)
	p := probeResult{region: region}
	haveFree := false
	for i := uint64(0); i < g.buckets; i++ {
		b := region*g.buckets + (start+i)&(g.buckets-1)
		w, err := s.readBucket(rd, b)
		if err != nil {
			return p, err
		}
		switch w {
		case bucketEmpty:
			if !haveFree {
				p.bucket = b
			}
			return p, nil
		case bucketTomb:
			if !haveFree {
				p.bucket, p.reusedTomb, haveFree = b, true, true
			}
		default:
			slot := w - bucketBase
			kl, vl, err := s.readSlotHeader(rd, slot)
			if err != nil {
				return p, err
			}
			if kl == len(key) {
				s.kbuf = grow(s.kbuf, kl)
				if err := rd(g.slotOff(slot)+slotHeader, s.kbuf); err != nil {
					return p, err
				}
				if bytes.Equal(s.kbuf, key) {
					return probeResult{found: true, region: region, bucket: b, slot: slot, valLen: vl}, nil
				}
			}
		}
	}
	p.full = !haveFree
	return p, nil
}

// grow returns buf resized to n, reallocating only when needed.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// Get returns the value stored under key. The returned slice is freshly
// allocated.
func (s *Store) Get(key []byte) ([]byte, error) { return fresh(s.GetAppend(key, nil)) }

// fresh turns a GetAppend(key, nil) result into Get's: nil on error, and
// never nil for a value that exists but is empty.
func fresh(val []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if val == nil {
		val = []byte{}
	}
	return val, nil
}

// GetAppend appends the value stored under key to dst and returns the
// extended slice — the allocation-free variant of Get for serving paths
// that copy the value straight into a pooled response buffer. On any
// error dst is returned unextended.
func (s *Store) GetAppend(key, dst []byte) ([]byte, error) {
	out, _, err := s.GetAppendAt(key, dst, repro.ReadOpts{})
	return out, err
}

// getAppend is the lookup body — probe, then the value read — with the
// charged reads routed through rd. Callers hold s.mu and have validated
// the key.
func (s *Store) getAppend(rd readFn, key, dst []byte) ([]byte, error) {
	p, err := s.probe(rd, key)
	if err != nil {
		return dst, s.observe(err)
	}
	if !p.found {
		return dst, ErrNotFound
	}
	off := len(dst)
	out := slices.Grow(dst, p.valLen)[:off+p.valLen]
	if err := rd(s.geo.slotOff(p.slot)+slotHeader+len(key), out[off:]); err != nil {
		return dst, s.observe(err)
	}
	return out, nil
}

// Put stores value under key, overwriting any previous value, in one
// transaction on the key's shard: a crash mid-Put leaves the key reading
// its previous value or the new one, whole.
func (s *Store) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.put(key, value); err != nil {
		return err
	}
	return s.end()
}

// put stages a Put in the open transaction, under s.mu.
func (s *Store) put(key, value []byte) error {
	s.room()
	if err := s.check(key); err != nil {
		return err
	}
	if len(key)+len(value) > s.geo.payload() {
		return ErrTooLarge
	}
	p, err := s.probe(s.reader(key, s.readPrimary), key)
	if err != nil {
		return s.lose(err)
	}
	if err := s.alloc(&p); err != nil {
		return err
	}
	tx, err := s.openTx()
	if err == nil {
		err = s.writePut(tx, p, key, value)
	}
	return s.stage(p, false, err)
}

// Delete removes key. The tombstoned bucket keeps later entries of the
// chain reachable; its slot returns to its region's free list.
func (s *Store) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.del(key); err != nil {
		return err
	}
	return s.end()
}

// del stages a Delete in the open transaction, under s.mu.
func (s *Store) del(key []byte) error {
	s.room()
	if err := s.check(key); err != nil {
		return err
	}
	p, err := s.probe(s.reader(key, s.readPrimary), key)
	if err != nil {
		return s.lose(err)
	}
	if !p.found {
		return ErrNotFound
	}
	tx, err := s.openTx()
	if err == nil {
		err = s.writeBucket(tx, p.bucket, bucketTomb)
	}
	return s.stage(p, true, err)
}

// check validates the key and the store's health.
func (s *Store) check(key []byte) error {
	if s.broken {
		return ErrBroken
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	return nil
}

// alloc gives a put its slot: the one the key already has, or — for an
// insert — the top of its region's free list, and only that region's.
func (s *Store) alloc(p *probeResult) error {
	if p.found {
		return nil
	}
	f := s.free[p.region]
	if p.full || len(f) == 0 {
		return ErrFull
	}
	p.slot = uint64(f[len(f)-1])
	s.free[p.region] = f[:len(f)-1]
	return nil
}

// unalloc returns the slot alloc took for a put that did not commit.
func (s *Store) unalloc(p probeResult) {
	if !p.found {
		s.free[p.region] = append(s.free[p.region], uint32(p.slot))
	}
}

// writePut issues a put's writes on tx. An overwrite rewrites the record
// in the slot it has — when the length is unchanged, only the one range of
// its value from the first byte that differs from the stored value (read
// through tx) to the last, none for an equal value, since every replica
// already holds the rest; an insert writes the record into its allocated
// slot and flips the bucket word to name it. Both ranges are in the key's
// region, so the transaction commits them together on one group.
func (s *Store) writePut(tx repro.Tx, p probeResult, key, value []byte) error {
	if p.found && p.valLen == len(value) {
		off := s.geo.slotOff(p.slot) + slotHeader + len(key)
		s.vbuf = grow(s.vbuf, len(value))
		if err := tx.Read(off, s.vbuf); err != nil {
			return err
		}
		lo, hi := 0, len(value)
		for lo < hi && s.vbuf[lo] == value[lo] {
			lo++
		}
		for hi > lo && s.vbuf[hi-1] == value[hi-1] {
			hi--
		}
		if lo == hi {
			return nil
		}
		return write(tx, off+lo, value[lo:hi])
	}
	n := slotHeader + len(key) + len(value)
	s.vbuf = grow(s.vbuf, n)
	binary.LittleEndian.PutUint32(s.vbuf[:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(s.vbuf[4:8], uint32(len(value)))
	copy(s.vbuf[slotHeader:], key)
	copy(s.vbuf[slotHeader+len(key):], value)
	if err := write(tx, s.geo.slotOff(p.slot), s.vbuf); err != nil || p.found {
		return err
	}
	return s.writeBucket(tx, p.bucket, p.slot+bucketBase)
}

// writeBucket sets bucket b's word inside tx.
func (s *Store) writeBucket(tx repro.Tx, b, word uint64) error {
	binary.LittleEndian.PutUint64(s.word[:], word)
	return write(tx, s.geo.bucketOff(b), s.word[:])
}

// sharedTx is the transaction every write of the store runs in: a Put's,
// Delete's or Txn's own, committed before it returns, or a Burst's, shared
// until its Seal. Valid under Store.mu; tx is nil outside a held Burst.
type sharedTx struct {
	tx      repro.Tx
	undo    int        // a bound on the undo-log bytes its mutations declared
	written []bool     // per shard: tx has written there
	staged  []stagedOp // its mutations, settled when it ends
	err     error      // what end must report: a failed commit, a loss
	txn     bool       // a Txn's keys are staging: room keeps tx, lose keeps the store
}

type stagedOp struct {
	p   probeResult
	del bool
}

// txUndoLimit caps sharedTx.undo at a quarter of the V3 engine's 1 MiB undo
// log, which keeps the transaction's redo record under the redo ring's
// half-ring limit too; a mutation's undo images are bounded by its record
// and bucket word, each behind an 8-byte log header and padded to 8 bytes.
const txUndoLimit = 1 << 18

func (g geometry) mutationUndo() int { return int(g.slotSize) + 32 }

// room commits the open transaction before a mutation that could take it
// past txUndoLimit, unless a Txn is staging; the mutation opens the next.
func (s *Store) room() {
	if o := &s.open; !o.txn && len(o.staged) > 0 && o.undo+s.geo.mutationUndo() > txUndoLimit {
		s.commitOpen()
	}
}

// shard returns the shard region r lives on now.
func (s *Store) shard(r uint64) int { return s.db.ShardFor(int(r * s.geo.partSize)) }

// reader returns how a mutation's probe, or a burst's lookup, of key reads:
// through the open transaction once it has written the key's shard — its
// bytes are ahead of every backup there, the primary's committed counter
// is not — else through rd.
func (s *Store) reader(key []byte, rd readFn) readFn {
	o := &s.open
	if o.tx == nil {
		return rd
	}
	r, _ := s.geo.place(key)
	if sh := s.shard(r); sh < len(o.written) && o.written[sh] {
		return s.readOpen
	}
	return rd
}

// readTx is readOpen's body.
func (s *Store) readTx(off int, dst []byte) error { return s.open.tx.Read(off, dst) }

// openTx returns the open transaction, beginning it if there is none.
func (s *Store) openTx() (repro.Tx, error) {
	if s.open.tx == nil {
		tx, err := s.db.Begin()
		if err != nil {
			return nil, err
		}
		s.open.tx = tx
	}
	return s.open.tx, nil
}

// stage records a mutation err says was written into the open transaction,
// or, when it was not, takes it back and loses the transaction.
func (s *Store) stage(p probeResult, del bool, err error) error {
	if err != nil {
		s.unalloc(p)
		return s.lose(err)
	}
	o := &s.open
	o.staged = append(o.staged, stagedOp{p, del})
	o.undo += s.geo.mutationUndo()
	sh := s.shard(p.region)
	for len(o.written) <= sh {
		o.written = append(o.written, false)
	}
	o.written[sh] = true
	return nil
}

// lose aborts the open transaction after an error a write met in it,
// taking back every mutation staged there. Unless they are a staging Txn's,
// whose Commit returns err itself, their callers were told nil, so the
// store breaks and end reports the loss: a crash or a deposition as it
// came, anything else as ErrBroken — never as a degraded acknowledgement,
// which would pass the lost writes as durable.
func (s *Store) lose(err error) error {
	o := &s.open
	if o.tx != nil {
		if aerr := o.tx.Abort(); aerr != nil {
			err = fmt.Errorf("%w (abort also failed: %v)", err, aerr)
		}
	}
	if len(o.staged) > 0 && !o.txn {
		s.broken = true
		lost := err
		if !errors.Is(err, repro.ErrCrashed) && !errors.Is(err, repro.ErrLeaseExpired) {
			lost = fmt.Errorf("%w: a failed mutation aborted the transaction: %v", ErrBroken, err)
		}
		o.err = worse(o.err, lost)
	}
	s.settleOpen(err)
	return s.observe(err)
}

// commitOpen commits the open transaction; a failure is kept for end.
func (s *Store) commitOpen() {
	if o := &s.open; o.tx != nil {
		err := o.tx.Commit()
		if err != nil {
			o.err = worse(o.err, s.fail(err))
		}
		s.settleOpen(err)
	}
}

// settleOpen folds the open transaction's mutations into the in-memory
// acceleration once it has ended with err — applied when it committed (a
// degraded acknowledgement included: the bytes are there), taken back
// otherwise, newest first so a failed one's slots go back in the order
// they came — and clears it.
func (s *Store) settleOpen(err error) {
	o := &s.open
	kept := err == nil || errors.Is(err, repro.ErrSafetyUnavailable)
	for i := len(o.staged) - 1; i >= 0; i-- {
		switch p := o.staged[i].p; {
		case !kept:
			s.unalloc(p)
		case o.staged[i].del:
			s.free[p.region] = append(s.free[p.region], uint32(p.slot))
			s.live--
			s.tombs++
		case !p.found:
			s.live++
			if p.reusedTomb {
				s.tombs--
			}
		}
	}
	o.tx, o.undo, o.staged = nil, 0, o.staged[:0]
	clear(o.written)
}

// end commits the open transaction and returns what its mutations' callers
// have yet to hear: the worse of its commit's failure and an earlier loss.
func (s *Store) end() error {
	s.commitOpen()
	err := s.open.err
	s.open.err = nil
	return err
}

// worse returns the one of two errors a caller must hear: a degraded
// acknowledgement never hides a failure that lost writes.
func worse(a, b error) error {
	if a == nil || b != nil && errors.Is(a, repro.ErrSafetyUnavailable) && !errors.Is(b, repro.ErrSafetyUnavailable) {
		return b
	}
	return a
}

// Scan visits up to limit live entries in bucket order, starting at
// start's natural bucket in its region (or region 0's first bucket when
// start is nil), wrapping once around the regions — the short range scan
// of YCSB-style workloads. Iteration order is hash order, not key order.
// The entries are staged under the store's lock and fn runs after it is
// released, so a callback is free to call back into the Store (Get, Put,
// even another Scan) without deadlocking; what it sees is a consistent
// snapshot taken at the Scan call, not the live table. fn's slices are
// reused between calls; copy what must outlive the callback. Returns the
// number of entries delivered to fn; a non-nil fn error stops the scan and
// is returned. A read error during staging delivers nothing.
func (s *Store) Scan(start []byte, limit int, fn func(key, value []byte) error) (int, error) {
	n, _, err := s.ScanAt(start, limit, repro.ReadOpts{}, fn)
	return n, err
}

// deliver hands a staged scan to fn, entry by entry.
func deliver(flat []byte, bounds []scanEntry, fn func(key, value []byte) error) (int, error) {
	for i, bd := range bounds {
		if err := fn(flat[bd.off:bd.off+bd.kl], flat[bd.off+bd.kl:bd.off+bd.kl+bd.vl]); err != nil {
			return i + 1, err
		}
	}
	return len(bounds), nil
}

// scanEntry locates one staged entry inside a scan's flat buffer.
type scanEntry struct {
	off, kl, vl int
}

// stageScan copies up to limit live entries out of the tables into one
// flat buffer, under s.mu, reading through the view ScanAt armed. The
// buffer is call-local: it must survive after the lock is released, and
// concurrent Scans must not share it, so it cannot live in the Store's
// recycled scratch space. An entry whose three reads did not see one view
// is read again (see view.moved).
func (s *Store) stageScan(start []byte, limit int) ([]byte, []scanEntry, error) {
	rd, v := s.vwRead, &s.vw
	if s.broken {
		return nil, nil, ErrBroken
	}
	if limit <= 0 {
		return nil, nil, nil
	}
	g := &s.geo
	total := g.regions * g.buckets
	b := uint64(0)
	if len(start) > 0 {
		region, bucket := g.place(start)
		b = region*g.buckets + bucket
	}
	var flat []byte
	var bounds []scanEntry
	for i := uint64(0); i < total && len(bounds) < limit; i++ {
		for try := 0; ; try++ {
			v.mark()
			w, err := s.readBucket(rd, b)
			if err != nil {
				return nil, nil, s.observe(err)
			}
			if w == bucketEmpty || w == bucketTomb {
				break
			}
			slot := w - bucketBase
			kl, vl, err := s.readSlotHeader(rd, slot)
			if err != nil {
				return nil, nil, s.observe(err)
			}
			off := len(flat)
			flat = slices.Grow(flat, kl+vl)[:off+kl+vl]
			if err := rd(g.slotOff(slot)+slotHeader, flat[off:]); err != nil {
				return nil, nil, s.observe(err)
			}
			if !v.moved() {
				bounds = append(bounds, scanEntry{off: off, kl: kl, vl: vl})
				break
			}
			flat = flat[:off]
			if try == viewRetries {
				// What a replica that cannot serve reports: ScanAt
				// restages on the primary.
				return nil, nil, repro.ErrReplicaUnavailable
			}
		}
		if b++; b == total {
			b = 0
		}
	}
	return flat, bounds, nil
}
