package kv

// The layout arithmetic, for the external tests that pick keys by region
// and plant damage at raw offsets. Bucket and slot indices count across
// regions, as bucket words do.

// Geometry returns the region count and one region's bucket and slot counts.
func (s *Store) Geometry() (regions, buckets, slots int) {
	return int(s.geo.regions), int(s.geo.buckets), int(s.geo.slots)
}

// Place returns key's region and its natural bucket.
func (s *Store) Place(key []byte) (region, bucket int) {
	r, b := s.geo.place(key)
	return int(r), int(r*s.geo.buckets + b)
}

// BucketOff returns the database offset of bucket b's word.
func (s *Store) BucketOff(b int) int { return s.geo.bucketOff(uint64(b)) }

// SlotOff returns the database offset of slot i's record header.
func (s *Store) SlotOff(i int) int { return s.geo.slotOff(uint64(i)) }

// FreeSlots returns the length of region r's free-slot list.
func (s *Store) FreeSlots(r int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free[r])
}
