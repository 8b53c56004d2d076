package kv_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro"
	"repro/kv"
)

// tearingDB is a deployment that commits something between two replica
// reads of one lookup: armed with at = n, the n-th ReadAt from then on runs
// tear first. A backup applies what has been delivered before each read it
// serves, so the reads on either side of the commit see different views.
type tearingDB struct {
	*repro.Cluster
	at   int
	tear func()
}

func (d *tearingDB) ReadAt(off int, dst []byte, opts repro.ReadOpts) (repro.ReadResult, error) {
	if d.at > 0 {
		if d.at--; d.at == 0 {
			d.tear()
		}
	}
	return d.Cluster.ReadAt(off, dst, opts)
}

// TestReplicaLookupReadsOneView: a replica-served lookup reads its bucket
// word, record header, key and value with four reads, and an overwrite —
// in place, so the slot stays — may be applied on the serving backup
// between any two of them. Whatever the lookup returns is one commit's
// value, never the old length with the new bytes.
func TestReplicaLookupReadsOneView(t *testing.T) {
	key := []byte("torn-key")
	values := [][]byte{
		bytes.Repeat([]byte("a"), 40),
		bytes.Repeat([]byte("B"), 90), // longer: an old length would truncate it
		bytes.Repeat([]byte("c"), 10), // shorter: an old length would run into B's tail
	}
	whole := func(got []byte) bool {
		for _, v := range values {
			if bytes.Equal(got, v) {
				return true
			}
		}
		return false
	}
	modes := map[string]func(c *repro.Cluster) repro.ReadOpts{
		"bounded": func(*repro.Cluster) repro.ReadOpts {
			return repro.ReadOpts{Mode: repro.ReadBounded, Bound: 1 << 20}
		},
		"ryw": func(c *repro.Cluster) repro.ReadOpts {
			return repro.ReadOpts{Mode: repro.ReadYourWrites, Token: c.Token(nil)}
		},
	}
	for name, optsFor := range modes {
		// The commit lands before the lookup's 2nd (header), 3rd (key) or
		// 4th (value) read.
		for at := 2; at <= 4; at++ {
			t.Run(fmt.Sprintf("%s/before-read-%d", name, at), func(t *testing.T) {
				c := newCluster(t, quorum3(repro.Config{})).(*repro.Cluster)
				db := &tearingDB{Cluster: c}
				s, err := kv.Open(db)
				if err != nil {
					t.Fatal(err)
				}
				// A second handle on the same bytes is the concurrent
				// writer: the reader's lock is held across the lookup.
				w, err := kv.Open(c)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Put(key, values[0]); err != nil {
					t.Fatal(err)
				}
				c.Settle()
				got, res, err := s.GetAt(key, optsFor(c))
				if err != nil || res.Replica == 0 || !bytes.Equal(got, values[0]) {
					t.Fatalf("undisturbed lookup = %q, served by %d, %v; want a backup to serve the first value", got, res.Replica, err)
				}
				for _, next := range values[1:] {
					db.at = at
					db.tear = func() {
						if err := w.Put(key, next); err != nil {
							t.Error(err)
						}
					}
					got, _, err := s.GetAt(key, optsFor(c))
					if err != nil || !whole(got) {
						t.Fatalf("lookup across an overwrite to %d bytes read %d bytes %q, %v: not a value anyone wrote", len(next), len(got), got, err)
					}
					// The same through a scan's entry: bucket word, header,
					// then key and value in one read.
					db.at = 3
					db.tear = func() {
						if err := w.Put(key, values[0]); err != nil {
							t.Error(err)
						}
					}
					n, _, err := s.ScanAt(key, 1, optsFor(c), func(k, v []byte) error {
						if !bytes.Equal(k, key) {
							t.Fatalf("scan from %q starts at %q: the test needs the key in its natural bucket", key, k)
						}
						if !whole(v) {
							t.Errorf("scan entry across an overwrite read %d bytes %q: not a value anyone wrote", len(v), v)
						}
						return nil
					})
					if err != nil || n != 1 {
						t.Fatalf("scan = %d, %v", n, err)
					}
					if db.at != 0 {
						t.Fatal("the scan never reached its armed read")
					}
				}
			})
		}
	}
}
