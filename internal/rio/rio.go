// Package rio models the Rio reliable main memory system (Chen et al.,
// ASPLOS'96) that Vista builds on: memory segments whose contents survive a
// crash of the software running above them.
//
// A Memory owns the recoverable segments of one node. Crashing the node
// (see the replication package) discards every piece of volatile program
// state — transaction objects, engine caches — but the segments' bytes
// remain and are handed to the recovery code, exactly as Rio hands
// protected memory back to Vista after an operating system crash.
package rio

import (
	"fmt"

	"repro/internal/mem"
)

// Memory is one node's reliable memory: a registry of recoverable segments
// living inside the node's simulated address space.
type Memory struct {
	space *mem.Space
}

// New returns a reliable memory backed by the given address space.
func New(space *mem.Space) *Memory {
	return &Memory{space: space}
}

// Space returns the underlying address space.
func (m *Memory) Space() *mem.Space { return m.space }

// Segment creates a recoverable segment as a region in the address space.
func (m *Memory) Segment(name string, base uint64, size int) (*mem.Region, error) {
	r, err := mem.NewRegion(name, base, size)
	if err == nil {
		err = m.space.Add(r)
	}
	if err != nil {
		return nil, fmt.Errorf("rio: %w", err)
	}
	return r, nil
}

// Attach registers an externally-constructed region (used by the
// replication layer to install the backup's copies).
func (m *Memory) Attach(r *mem.Region) error {
	if err := m.space.Add(r); err != nil {
		return fmt.Errorf("rio: %w", err)
	}
	return nil
}

// Lookup returns the named segment, or an error if it does not exist —
// recovery code uses this to find its roots after a crash.
func (m *Memory) Lookup(name string) (*mem.Region, error) {
	r := m.space.ByName(name)
	if r == nil {
		return nil, fmt.Errorf("rio: no segment %q", name)
	}
	return r, nil
}
