//go:build unix && !aix && !race

package mem

import "syscall"

// offHeap: the memory is a mapping outside the Go heap, which a cleanup
// must unmap.
const offHeap = true

// alloc maps n zero bytes, anonymous and private: the kernel backs a page on
// its first write, and MAP_NORESERVE keeps unwritten pages off the host's
// commit limit.
func alloc(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil // mmap refuses an empty mapping
	}
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
}

func free(m []byte) { _ = syscall.Munmap(m) } // a cleanup has no caller to tell
