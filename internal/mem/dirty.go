package mem

// DirtyLog tracks which pages of a region have been written, and when, on a
// logical clock a node's regions share: every mark advances the clock and
// stamps the covered pages with it. A replica reads the clock at each commit
// it provably holds; when it rejoins, the pages either side stamped after
// their readings for a commit both held are exactly the delta, so
// re-enrollment ships those pages instead of whole regions.
//
// A DirtyLog is owned by the single stream that writes its node's regions
// (marks happen under the node owner's serialization); it is not safe for
// concurrent use.
type DirtyLog struct {
	pageSize int
	clock    *uint64
	pages    []uint64 // last-mark reading per page; 0 = never written
}

// NewDirtyLog returns a tracker for a region of size bytes at the given
// page granularity, marking on the given clock.
func NewDirtyLog(size, pageSize int, clock *uint64) *DirtyLog {
	n := (size + pageSize - 1) / pageSize
	return &DirtyLog{pageSize: pageSize, clock: clock, pages: make([]uint64, n)}
}

// PageSize returns the tracking granularity in bytes.
func (d *DirtyLog) PageSize() int { return d.pageSize }

// Pages returns the number of tracked pages.
func (d *DirtyLog) Pages() int { return len(d.pages) }

// Seq returns the current reading of the clock the node's regions share.
func (d *DirtyLog) Seq() uint64 { return *d.clock }

// Mark records a write covering [off, off+n).
func (d *DirtyLog) Mark(off, n int) {
	if n <= 0 {
		return
	}
	*d.clock++
	last := (off + n - 1) / d.pageSize
	if last >= len(d.pages) {
		last = len(d.pages) - 1
	}
	for p := off / d.pageSize; p <= last; p++ {
		d.pages[p] = *d.clock
	}
}

// Written reports whether page p has ever been marked. Memory starts zeroed
// and every mutation is marked, so a page that was never written reads zero:
// a full (enrollment) transfer ships only the pages its source or its
// destination has written.
func (d *DirtyLog) Written(p int) bool { return d.pages[p] != 0 }

// Stamp returns the clock reading of page p's last mark, 0 if it was never
// marked.
func (d *DirtyLog) Stamp(p int) uint64 { return d.pages[p] }

// Stamps copies the last-mark readings of the pages from the one holding
// byte off onward into dst: the image a reader keeps of the pages it has
// read, to tell later which of them were written since.
func (d *DirtyLog) Stamps(off int, dst []uint64) { copy(dst, d.pages[off/d.pageSize:]) }
