package kv_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/kv"
)

// TestColdRestartKeyspace: a keyspace persisted through the disk tier
// survives a full-cluster power loss — kv.Open over the cold-restarted
// deployment recovers its index from the replayed bytes, on both
// facades.
func TestColdRestartKeyspace(t *testing.T) {
	mk := func(dir string, shards int) (repro.DB, error) {
		cfg := repro.Config{
			Version: repro.V3InlineLog,
			Backup:  repro.ActiveBackup,
			DBSize:  1 << 20,
			Backups: 2,
			Safety:  repro.QuorumSafe,
			Durability: repro.DurabilityConfig{
				Dir:           dir,
				SnapshotEvery: 50,
			},
		}
		if shards == 0 {
			return repro.New(cfg)
		}
		return repro.NewSharded(cfg, shards)
	}
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			db, err := mk(dir, shards)
			if err != nil {
				t.Fatal(err)
			}
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			const n = 250
			for i := 0; i < n; i++ {
				if err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Delete a slice so recovery proves tombstones persist too.
			for i := 0; i < n; i += 10 {
				if err := s.Delete([]byte(fmt.Sprintf("key%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			db.Settle()
			admin := db.(repro.Admin)
			for i := 0; i < db.Shards(); i++ {
				if err := admin.Shard(i).PowerFail(); err != nil {
					t.Fatalf("shard %d: PowerFail: %v", i, err)
				}
			}

			db2, err := mk(dir, shards)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := kv.Open(db2)
			if err != nil {
				t.Fatalf("kv.Open after cold restart: %v", err)
			}
			if want := n - n/10; s2.Len() != want {
				t.Fatalf("recovered keyspace has %d live keys, want %d", s2.Len(), want)
			}
			for i := 0; i < n; i++ {
				v, err := s2.Get([]byte(fmt.Sprintf("key%04d", i)))
				if i%10 == 0 {
					if err == nil {
						t.Fatalf("deleted key %d resurrected as %q", i, v)
					}
					continue
				}
				if err != nil || string(v) != fmt.Sprintf("val%04d", i) {
					t.Fatalf("key %d after cold restart: %q, %v", i, v, err)
				}
			}
			// The recovered store serves writes, and another clean
			// shutdown/restart round-trips them.
			if err := s2.Put([]byte("post-restart"), []byte("z")); err != nil {
				t.Fatal(err)
			}
			db2.Settle()
			if err := db2.(repro.Admin).Close(); err != nil {
				t.Fatal(err)
			}
			db3, err := mk(dir, shards)
			if err != nil {
				t.Fatal(err)
			}
			s3, err := kv.Open(db3)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := s3.Get([]byte("post-restart")); err != nil || string(v) != "z" {
				t.Fatalf("post-restart key after clean shutdown: %q, %v", v, err)
			}
			if err := db3.(repro.Admin).Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
