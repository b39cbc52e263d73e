package core

import (
	"sort"

	"repro/internal/guest"
	"repro/internal/shadow"
)

// renumberHeadroom is how far above the post-pass counter value the
// threshold is raised when it turns out to be too small to make progress
// (see renumber). Any positive slack works; a handful of bumps between
// passes keeps pathological-threshold tests from renumbering at literally
// every event.
const renumberHeadroom = 32

// renumber implements the paper's counter-overflow procedure (Fig. 13). It
// compacts every timestamp in the profiler's data structures — pending
// activation timestamps, per-thread shadow memories and the global write
// shadow — while preserving exactly the order relations the read/write
// timestamping algorithm consults:
//
//   - ts_t[l] vs. wts[l] for the same cell l and each thread t, and
//   - ts_t[l] vs. the timestamps of t's pending activations.
//
// Orders between timestamps of different memory cells are never compared by
// the algorithm and are free to change. Pending activations get new
// timestamps 3(rank+1) by rank of their old timestamp; a memory timestamp
// falling in the interval of activation rank q maps to base b = 3(q+1), with
// b, b+1 or b+2 selected by its relation to the cell's global write
// timestamp — the reason the paper spaces routine timestamps by multiples of
// three.
func (p *Profiler) renumber() {
	p.renumbers++

	// Collect and rank all pending activation timestamps (they are
	// distinct: the counter is bumped at every call).
	var acts []uint32
	for _, tv := range p.threads {
		for _, f := range tv.stack {
			acts = append(acts, f.TS)
		}
	}
	sort.Slice(acts, func(i, j int) bool { return acts[i] < acts[j] })

	newCount := uint32(3 * (len(acts) + 2))
	if p.threshold <= newCount {
		// A pathologically small threshold (tests use 1 or 2) cannot fit
		// even the renumbered pending activations below itself: bump would
		// trigger another pass immediately and the counter could never
		// advance. Raising the threshold is safe — renumbering preserves
		// every order relation the algorithm consults, so the threshold
		// only controls cadence, never results — and it guarantees forward
		// progress for any configured value.
		p.threshold = newCount + renumberHeadroom
	}

	var snap *renumberSnap
	if p.checks == CheckDeep {
		snap = p.snapshotRelations()
	}

	// interval returns the rank of the latest pending activation whose old
	// timestamp is <= v, or -1.
	interval := func(v uint32) int {
		lo, hi, q := 0, len(acts)-1, -1
		for lo <= hi {
			mid := (lo + hi) / 2
			if acts[mid] <= v {
				q = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		return q
	}

	// Remap per-thread shadow memories first: they need each cell's *old*
	// global write timestamp.
	gc := p.global.Cursor()
	for _, tv := range p.threads {
		tv.ts.RangeChunks(func(base guest.Addr, vals *[shadow.ChunkSize]uint32) {
			for off := range vals {
				v := vals[off]
				if v == 0 {
					continue
				}
				b := uint32(3 * (interval(v) + 1))
				w := uint32(gc.Peek(base+guest.Addr(off)) >> 32)
				switch {
				case v == w:
					// The thread wrote the cell last.
					vals[off] = b + 1
				case v < w:
					// Another writer intervened after the thread's
					// access; preserve ts_t < wts. When v predates
					// every pending activation, b is 0: the cell
					// reads as never-accessed, which triggers the
					// same induced-first-access outcome.
					vals[off] = b
				default:
					// The thread accessed the cell after its last
					// write (or it was never written).
					vals[off] = b + 2
				}
			}
		})
	}

	// Remap the global write shadow: the write timestamp of a cell in
	// activation interval q becomes 3(q+1)+1, keeping provenance bits.
	p.global.RangeChunks(func(base guest.Addr, vals *[shadow.ChunkSize]uint64) {
		for off := range vals {
			g := vals[off]
			v := uint32(g >> 32)
			if v == 0 {
				continue
			}
			nv := uint64(3*(interval(v)+1) + 1)
			vals[off] = nv<<32 | g&0xFFFFFFFF
		}
	})

	// Remap pending activation timestamps by rank.
	for _, tv := range p.threads {
		for i := range tv.stack {
			r := interval(tv.stack[i].TS) // exact rank: frame timestamps are in acts
			tv.stack[i].TS = uint32(3 * (r + 1))
		}
	}

	p.count = newCount
	if snap != nil {
		p.verifyRenumber(snap, newCount)
	}
}
