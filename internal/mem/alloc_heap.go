//go:build race || !unix || aix

package mem

// offHeap: the memory is a Go slice the collector reclaims. Race builds keep
// it on the heap because the race detector sees no memory outside it; AIX's
// syscall package has no MAP_NORESERVE, and non-unix hosts no mmap.
const offHeap = false

func alloc(n int) ([]byte, error) { return make([]byte, n), nil }

func free([]byte) {}
