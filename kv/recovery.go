package kv

import (
	"encoding/binary"
	"fmt"
)

// recover rebuilds the in-memory acceleration (free lists, live and
// tombstone counts) from the database bytes, region by region. It runs on
// every Open of a formatted store — in particular on the promoted survivor
// after a crash and failover, where the committed-prefix guarantee is
// already observable at the key level: every mutation is one transaction
// on one group, so the survivor holds each key's record and bucket word
// from the same commit and there is nothing torn to repair.
//
// What it still does is validate every reachable bucket, because a record
// read through a bad word would be served as data. A live word is
// tombstoned when it names a slot out of range or in another region, a
// slot with an implausible record header, a key that hashes to another
// region, or a key another bucket of the region also holds (two words
// naming one slot included) — there the entry earlier in the key's own
// probe order wins, the same record a Get returns. None of that is
// produced by this package's own crashes; it is the guard against bytes
// something else wrote.
//
// The repair writes go through the store's open transaction, like any
// mutation's, so they are themselves replicated.
func (s *Store) recover() error {
	g := s.geo
	used := make([]bool, g.regions*g.slots)
	type entry struct {
		bucket uint64
		slot   uint64
		dist   uint64
	}
	keys := make(map[string]entry) // one region's live keys
	var clears []uint64
	s.live, s.tombs = 0, 0

	// Recovery is management plane: raw reads charge no simulated time.
	words := make([]byte, g.buckets*bucketWidth)
	var hdr [slotHeader]byte
	for r := uint64(0); r < g.regions; r++ {
		clear(keys)
		s.db.ReadRaw(g.bucketOff(r*g.buckets), words)
		for i := uint64(0); i < g.buckets; i++ {
			b := r*g.buckets + i
			w := binary.LittleEndian.Uint64(words[i*bucketWidth:])
			if w == bucketEmpty {
				continue
			}
			if w == bucketTomb {
				s.tombs++
				continue
			}
			slot := w - bucketBase
			if slot/g.slots != r { // out of range, or another region's
				clears = append(clears, b)
				continue
			}
			s.db.ReadRaw(g.slotOff(slot), hdr[:])
			kl := int(binary.LittleEndian.Uint32(hdr[:4]))
			vl := int(binary.LittleEndian.Uint32(hdr[4:]))
			if kl == 0 || kl+vl > g.payload() {
				clears = append(clears, b)
				continue
			}
			key := make([]byte, kl)
			s.db.ReadRaw(g.slotOff(slot)+slotHeader, key)
			region, natural := g.place(key)
			if region != r {
				clears = append(clears, b)
				continue
			}
			dist := (i - natural) & (g.buckets - 1)
			if prev, dup := keys[string(key)]; dup {
				// Two buckets claim the key: keep the one a Get reaches
				// first (smaller probe distance from the key's natural
				// bucket), tombstone the other.
				if dist > prev.dist {
					clears = append(clears, b)
					continue
				}
				clears = append(clears, prev.bucket)
				used[prev.slot] = false
				s.live--
			}
			keys[string(key)] = entry{bucket: b, slot: slot, dist: dist}
			used[slot] = true
			s.live++
		}
	}
	s.resetFree(used)

	if len(clears) == 0 {
		return nil
	}
	tx, err := s.openTx()
	for i := 0; err == nil && i < len(clears); i++ {
		err = s.writeBucket(tx, clears[i], bucketTomb)
	}
	if err != nil {
		err = s.lose(err)
	} else {
		err = s.end()
	}
	if err != nil {
		return fmt.Errorf("kv: recovery repair: %w", err)
	}
	s.tombs += len(clears)
	return nil
}
