// Package trace defines the memory-access record exchanged between the
// phase-1 execution-driven simulator (which records it) and the phase-2
// full-system simulator (which replays it), and LVAG, the chunked binary
// encoding in which recordings are streamed to disk and back (grid.go).
package trace

import "lva/internal/value"

// Op distinguishes access types.
type Op uint8

const (
	// Load is a data load.
	Load Op = iota
	// Store is a data store.
	Store
)

func (o Op) String() string {
	if o == Store {
		return "store"
	}
	return "load"
}

// Access is one dynamic memory access.
type Access struct {
	// PC is the (synthetic) program counter of the instruction.
	PC uint64
	// Addr is the byte address accessed.
	Addr uint64
	// Value is the precise data value (meaningful for loads).
	Value value.Value
	// Gap is the number of non-memory instructions executed since the
	// previous access on the same thread (used by the timing model).
	Gap uint32
	// Thread is the logical thread id (0..3 for 4-thread runs).
	Thread uint8
	// Op is Load or Store.
	Op Op
	// Approx marks accesses to data annotated approximate (§IV).
	Approx bool
}
