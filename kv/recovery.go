package kv

import (
	"encoding/binary"
	"fmt"
)

// recover rebuilds the in-memory acceleration (free lists, live and
// tombstone counts) from the database bytes, region by region. It runs on
// every Open of a formatted store — in particular on the promoted survivor
// after a crash and failover, where the replication layer has restored a
// committed prefix: every mutation is one transaction on one group, so the
// survivor holds each key's record and bucket word from the same commit
// and there is nothing torn to repair.
//
// It still validates every reachable bucket, because a record read through
// a bad word would be served as data. A live word must name a slot of its
// own region that no other word names, holding a plausible record header
// and a key that hashes to that region and that no other bucket of the
// region holds. This package's own crashes produce none of those faults
// (TestKVCrashPoints enumerates them), so the first one found is bytes
// something else wrote: recover refuses the store with ErrBadFormat,
// naming the region and the bucket, and writes nothing. The acceleration
// is assigned only when every bucket passed.
func (s *Store) recover() error {
	g := s.geo
	used := make([]bool, g.regions*g.slots)
	keys := make(map[string]uint64) // one region's live keys: their buckets
	live, tombs := 0, 0

	// Recovery is management plane: raw reads charge no simulated time.
	words := make([]byte, g.buckets*bucketWidth)
	var hdr [slotHeader]byte
	for r := uint64(0); r < g.regions; r++ {
		clear(keys)
		s.db.ReadRaw(g.bucketOff(r*g.buckets), words)
		for i := uint64(0); i < g.buckets; i++ {
			w := binary.LittleEndian.Uint64(words[i*bucketWidth:])
			if w == bucketEmpty {
				continue
			}
			if w == bucketTomb {
				tombs++
				continue
			}
			slot := w - bucketBase
			if slot/g.slots != r { // out of range, or another region's
				return refuse(r, i, "slot %d is not the region's", slot)
			}
			if used[slot] {
				return refuse(r, i, "slot %d is named by another bucket too", slot)
			}
			s.db.ReadRaw(g.slotOff(slot), hdr[:])
			kl := int(binary.LittleEndian.Uint32(hdr[:4]))
			vl := int(binary.LittleEndian.Uint32(hdr[4:]))
			if kl == 0 || kl+vl > g.payload() {
				return refuse(r, i, "slot %d holds an implausible record header (key %d, value %d bytes)", slot, kl, vl)
			}
			key := make([]byte, kl)
			s.db.ReadRaw(g.slotOff(slot)+slotHeader, key)
			if region, _ := g.place(key); region != r {
				return refuse(r, i, "slot %d holds a key of region %d", slot, region)
			}
			if prev, dup := keys[string(key)]; dup {
				return refuse(r, i, "its key is in bucket %d too", prev)
			}
			keys[string(key)] = i
			used[slot] = true
			live++
		}
	}
	s.live, s.tombs = live, tombs
	s.resetFree(used)
	return nil
}

// refuse is recover's error for bucket i of region r.
func refuse(r, i uint64, format string, a ...any) error {
	return fmt.Errorf("%w: region %d bucket %d: %s", ErrBadFormat, r, i, fmt.Sprintf(format, a...))
}
