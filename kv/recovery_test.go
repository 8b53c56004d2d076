package kv_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro"
	"repro/kv"
)

// damage is the raw-byte toolbox of TestRecoverTombstonesWhatItCannotTrust:
// it reads and plants bucket words and records beneath an open store, on
// every replica at once (repro.DB.Load).
type damage struct {
	t  *testing.T
	db repro.DB
	s  *kv.Store
}

func (d damage) word(b int) uint64 {
	var w [8]byte
	d.db.ReadRaw(d.s.BucketOff(b), w[:])
	return binary.LittleEndian.Uint64(w[:])
}

func (d damage) setWord(b int, w uint64) {
	d.t.Helper()
	if err := d.db.Load(d.s.BucketOff(b), binary.LittleEndian.AppendUint64(nil, w)); err != nil {
		d.t.Fatal(err)
	}
}

// setRecord plants a record header and its bytes in slot i.
func (d damage) setRecord(i int, keyLen, valLen uint32, body []byte) {
	d.t.Helper()
	rec := binary.LittleEndian.AppendUint32(nil, keyLen)
	rec = binary.LittleEndian.AppendUint32(rec, valLen)
	if err := d.db.Load(d.s.SlotOff(i), append(rec, body...)); err != nil {
		d.t.Fatal(err)
	}
}

// locate finds the bucket and slot key lives in, walking its chain raw.
func (d damage) locate(key []byte) (bucket, slot int) {
	d.t.Helper()
	_, buckets, _ := d.s.Geometry()
	region, natural := d.s.Place(key)
	for k := 0; k < buckets; k++ {
		b := region*buckets + (natural+k)%buckets
		w := d.word(b)
		if w < 2 {
			continue
		}
		got := make([]byte, len(key))
		d.db.ReadRaw(d.s.SlotOff(int(w-2))+8, got)
		if bytes.Equal(got, key) {
			return b, int(w - 2)
		}
	}
	d.t.Fatalf("key %q is in no bucket of its chain", key)
	return 0, 0
}

// emptyAfter returns the first empty bucket after b in its region's ring.
func (d damage) emptyAfter(b int) int {
	_, buckets, _ := d.s.Geometry()
	for k := 1; k < buckets; k++ {
		if n := b/buckets*buckets + (b+k)%buckets; d.word(n) == 0 {
			return n
		}
	}
	d.t.Fatal("no empty bucket in the region")
	return 0
}

// freeSlot returns a never-written slot of the region.
func (d damage) freeSlot(region int) int {
	_, _, slots := d.s.Geometry()
	for i := region * slots; i < (region+1)*slots; i++ {
		var hdr [8]byte
		d.db.ReadRaw(d.s.SlotOff(i), hdr[:])
		if hdr == [8]byte{} {
			return i
		}
	}
	d.t.Fatal("no unused slot in the region")
	return 0
}

// TestRecoverTombstonesWhatItCannotTrust plants, beneath a healthy store,
// each kind of bucket word recovery refuses to serve a record through, and
// checks the repair: the word is tombstoned by one replicated transaction,
// every intact key still reads, the count is right, and the repair is on
// the survivor after a failover.
func TestRecoverTombstonesWhatItCannotTrust(t *testing.T) {
	const keys = 50
	victim := []byte("keep007")
	name := func(i int) []byte { return []byte(fmt.Sprintf("keep%03d", i)) }
	value := func(i int) []byte { return []byte(fmt.Sprintf("val%03d", i)) }

	// Each case plants its damage and returns the bucket recovery must
	// tombstone and what the victim key must read afterwards.
	cases := map[string]func(d damage) (bad int, victimReads []byte){
		"slot index out of range": func(d damage) (int, []byte) {
			regions, _, slots := d.s.Geometry()
			b, _ := d.locate(victim)
			bad := d.emptyAfter(b)
			d.setWord(bad, uint64(regions*slots)+2)
			return bad, value(7)
		},
		"slot in another region": func(d damage) (int, []byte) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			for i := 0; ; i++ { // a live record, whole and well-formed, next door
				if r, _ := d.s.Place(name(i)); r != region {
					_, slot := d.locate(name(i))
					bad := d.emptyAfter(b)
					d.setWord(bad, uint64(slot)+2)
					return bad, value(7)
				}
			}
		},
		"record header longer than a slot": func(d damage) (int, []byte) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			slot, bad := d.freeSlot(region), d.emptyAfter(b)
			d.setRecord(slot, 5, uint32(d.s.SlotPayload()), []byte("bogus"))
			d.setWord(bad, uint64(slot)+2)
			return bad, value(7)
		},
		"record header of a slot never written": func(d damage) (int, []byte) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			bad := d.emptyAfter(b)
			d.setWord(bad, uint64(d.freeSlot(region))+2)
			return bad, value(7)
		},
		"key that hashes to another region": func(d damage) (int, []byte) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			slot, bad := d.freeSlot(region), d.emptyAfter(b)
			for i := 0; ; i++ {
				alien := []byte(fmt.Sprintf("alien%03d", i))
				if r, _ := d.s.Place(alien); r != region {
					d.setRecord(slot, uint32(len(alien)), 1, append(alien, 'x'))
					break
				}
			}
			d.setWord(bad, uint64(slot)+2)
			return bad, value(7)
		},
		"two buckets naming one slot": func(d damage) (int, []byte) {
			b, slot := d.locate(victim)
			bad := d.emptyAfter(b)
			d.setWord(bad, uint64(slot)+2)
			return bad, value(7)
		},
		"one key live twice, the copy farther along": func(d damage) (int, []byte) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			slot, bad := d.freeSlot(region), d.emptyAfter(b)
			d.setRecord(slot, uint32(len(victim)), 5, append(bytes.Clone(victim), "stale"...))
			d.setWord(bad, uint64(slot)+2)
			return bad, value(7)
		},
		"one key live twice, the copy nearer": func(d damage) (int, []byte) {
			b, original := d.locate(victim)
			region, _ := d.s.Place(victim)
			slot, bad := d.freeSlot(region), d.emptyAfter(b)
			d.setRecord(slot, uint32(len(victim)), 6, append(bytes.Clone(victim), "nearer"...))
			d.setWord(b, uint64(slot)+2)
			d.setWord(bad, uint64(original)+2)
			return bad, []byte("nearer")
		},
	}
	for label, plant := range cases {
		t.Run(label, func(t *testing.T) {
			db := newCluster(t, quorum3(repro.Config{})) // keeps its quorum through the loss of a primary
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < keys; i++ {
				if err := s.Put(name(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}
			d := damage{t: t, db: db, s: s}
			bad, victimReads := plant(d)

			check := func(s *kv.Store) {
				t.Helper()
				if w := d.word(bad); w != 1 {
					t.Fatalf("the planted bucket word reads %d, want a tombstone", w)
				}
				if s.Len() != keys {
					t.Fatalf("Len = %d, want %d", s.Len(), keys)
				}
				for i := 0; i < keys; i++ {
					want := value(i)
					if bytes.Equal(name(i), victim) {
						want = victimReads
					}
					if got, err := s.Get(name(i)); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("key %q reads %q, %v; want %q", name(i), got, err, want)
					}
				}
			}
			before := db.Stats().Commits
			repaired, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			if n := db.Stats().Commits - before; n != 1 {
				t.Fatalf("recovery committed %d transactions, want the one repair", n)
			}
			check(repaired)

			admin := db.(repro.Admin)
			if err := admin.CrashPrimary(); err != nil {
				t.Fatal(err)
			}
			if err := admin.Failover(); err != nil {
				t.Fatal(err)
			}
			before = db.Stats().Commits
			survivor, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			if n := db.Stats().Commits - before; n != 0 {
				t.Fatalf("Open on the survivor committed %d transactions: the repair did not replicate", n)
			}
			check(survivor)
			// The repaired store takes writes in the victim's chain again.
			if err := survivor.Put(victim, []byte("rewritten")); err != nil {
				t.Fatal(err)
			}
			if got, err := survivor.Get(victim); err != nil || string(got) != "rewritten" {
				t.Fatalf("victim after a rewrite reads %q, %v", got, err)
			}
		})
	}
}
