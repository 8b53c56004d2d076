package kv_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/kv"
)

// damage is the raw-byte toolbox of TestOpenRefusesWhatItCannotTrust:
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

// emptyBefore returns the first empty bucket of b's region, which must lie
// before b in the bucket array.
func (d damage) emptyBefore(b int) int {
	_, buckets, _ := d.s.Geometry()
	for n := b / buckets * buckets; n < b; n++ {
		if d.word(n) == 0 {
			return n
		}
	}
	d.t.Fatal("no empty bucket before the key's")
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

// TestOpenRefusesWhatItCannotTrust plants, beneath a healthy store, each
// kind of bucket word recovery refuses to serve a record through, and
// checks the refusal: Open and Reopen return ErrBadFormat naming the
// victim's region and the rule that failed, neither writes a byte nor ships
// one, and the refused store takes no Put.
func TestOpenRefusesWhatItCannotTrust(t *testing.T) {
	const keys = 50
	victim := []byte("keep007")
	name := func(i int) []byte { return []byte(fmt.Sprintf("keep%03d", i)) }

	// Each case plants its damage in the victim's region and names the
	// rule the refusal must cite. The out-of-range word follows the
	// other-region one: without the region rule it panics recovery, and
	// the first case has then said which rule is missing.
	cases := []struct {
		name, why string
		plant     func(d damage)
	}{
		{"slot in another region", "is not the region's", func(d damage) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			for i := 0; ; i++ { // a live record, whole and well-formed, next door
				if r, _ := d.s.Place(name(i)); r != region {
					_, slot := d.locate(name(i))
					d.setWord(d.emptyAfter(b), uint64(slot)+2)
					return
				}
			}
		}},
		{"slot index out of range", "is not the region's", func(d damage) {
			regions, _, slots := d.s.Geometry()
			b, _ := d.locate(victim)
			d.setWord(d.emptyAfter(b), uint64(regions*slots)+2)
		}},
		{"record header longer than a slot", "implausible record header", func(d damage) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			slot := d.freeSlot(region)
			d.setRecord(slot, 5, uint32(d.s.SlotPayload()), []byte("bogus"))
			d.setWord(d.emptyAfter(b), uint64(slot)+2)
		}},
		{"record header of a slot never written", "implausible record header", func(d damage) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			d.setWord(d.emptyAfter(b), uint64(d.freeSlot(region))+2)
		}},
		{"key that hashes to another region", "holds a key of region", func(d damage) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			slot := d.freeSlot(region)
			for i := 0; ; i++ {
				alien := []byte(fmt.Sprintf("alien%03d", i))
				if r, _ := d.s.Place(alien); r != region {
					d.setRecord(slot, uint32(len(alien)), 1, append(alien, 'x'))
					break
				}
			}
			d.setWord(d.emptyAfter(b), uint64(slot)+2)
		}},
		{"two buckets naming one slot", "named by another bucket too", func(d damage) {
			b, slot := d.locate(victim)
			d.setWord(d.emptyAfter(b), uint64(slot)+2)
		}},
		{"two buckets naming one slot, the copy first in the region", "named by another bucket too", func(d damage) {
			b, slot := d.locate(victim)
			d.setWord(d.emptyBefore(b), uint64(slot)+2)
		}},
		{"one key live twice, the copy farther along", "is in bucket", func(d damage) {
			b, _ := d.locate(victim)
			region, _ := d.s.Place(victim)
			slot := d.freeSlot(region)
			d.setRecord(slot, uint32(len(victim)), 5, append(bytes.Clone(victim), "stale"...))
			d.setWord(d.emptyAfter(b), uint64(slot)+2)
		}},
		{"one key live twice, the copy nearer", "is in bucket", func(d damage) {
			b, original := d.locate(victim)
			region, _ := d.s.Place(victim)
			slot := d.freeSlot(region)
			d.setRecord(slot, uint32(len(victim)), 6, append(bytes.Clone(victim), "nearer"...))
			d.setWord(d.emptyAfter(b), uint64(original)+2)
			d.setWord(b, uint64(slot)+2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newCluster(t, quorum3(repro.Config{}))
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < keys; i++ {
				if err := s.Put(name(i), []byte(fmt.Sprintf("val%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			tc.plant(damage{t: t, db: db, s: s})
			region, _ := s.Place(victim)
			image := make([]byte, db.DBSize())
			db.ReadRaw(0, image)
			traffic := db.NetTraffic()

			refused := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, kv.ErrBadFormat) || !strings.Contains(err.Error(), fmt.Sprintf("region %d bucket ", region)) || !strings.Contains(err.Error(), tc.why) {
					t.Errorf("%s = %v; want ErrBadFormat naming region %d and %q", op, err, region, tc.why)
				}
				after := make([]byte, db.DBSize())
				if db.ReadRaw(0, after); !bytes.Equal(after, image) {
					t.Errorf("%s wrote to the refused bytes", op)
				}
				if got := db.NetTraffic(); got != traffic {
					t.Errorf("%s shipped %+v, want %+v", op, got, traffic)
				}
			}
			_, err = kv.Open(db)
			refused("Open", err)
			refused("Reopen", s.Reopen())
			if err := s.Put(name(0), []byte("after")); !errors.Is(err, kv.ErrBroken) {
				t.Errorf("Put after the refused Reopen = %v, want ErrBroken", err)
			}
		})
	}
}
