//go:build !race

package kvserver

// raceEnabled reports whether the race detector is instrumenting this
// build (it inflates allocation counts, so the allocation guard skips
// itself under -race).
const raceEnabled = false
