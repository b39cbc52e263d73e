// Package tools implements analogs of the Valgrind tools the paper compares
// against (Table 1): nulgrind (no analysis), memcheck (memory-error
// detection over shadow state bits), callgrind (call-graph profiling), and
// helgrind (happens-before data-race detection with vector clocks). All of
// them consume the same guest event stream as the input-sensitive profiler,
// so their relative per-event analysis costs can be compared the way the
// paper compares tool slowdowns over a shared instrumentation substrate.
package tools

import "repro/internal/guest"

// Nulgrind performs no analysis: it measures the bare cost of event
// dispatch, the baseline the paper normalizes tool overheads against.
type Nulgrind struct {
	guest.BaseTool
	events uint64
}

// NewNulgrind returns a Nulgrind tool.
func NewNulgrind() *Nulgrind { return &Nulgrind{} }

// Events returns the number of memory-access events observed (the counter
// exists so the dispatch loop cannot be optimized away).
func (n *Nulgrind) Events() uint64 { return n.events }

// MemBatch implements guest.Tool: it counts the thread's own accesses and
// skips kernel-mediated ones.
func (n *Nulgrind) MemBatch(_ guest.ThreadID, _ uint64, events []guest.MemEvent) {
	c := uint64(0)
	for _, e := range events {
		if !e.IsKernel() {
			c++
		}
	}
	n.events += c
}

// Call implements guest.Tool.
func (n *Nulgrind) Call(guest.ThreadID, guest.RoutineID, uint64) { n.events++ }

// Return implements guest.Tool.
func (n *Nulgrind) Return(guest.ThreadID, guest.RoutineID, uint64) { n.events++ }
