//go:build race

package kvserver

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = true
