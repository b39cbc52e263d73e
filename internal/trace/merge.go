package trace

import (
	"container/heap"
	"math/rand"
)

// Walk streams the trace's events in merged (totally ordered) order without
// materializing the merged slice: events are ordered by timestamp, with ties
// between threads broken by a thread priority permutation drawn from
// tieSeed, exactly as Merge orders them. For each event f receives the index
// of the owning ThreadTrace in tr.Threads, the event's index within that
// thread's Events slice, and the event itself. Unlike Merge, Walk does not
// synthesize switchThread events; callers detect thread changes between
// consecutive calls. It is the streaming core of Merge.
func Walk(tr *Trace, tieSeed int64, f func(threadIdx, eventIdx int, e *Event)) {
	WalkRuns(tr, tieSeed, func(ti, lo, hi int) {
		tt := &tr.Threads[ti]
		for i := lo; i < hi; i++ {
			f(ti, i, &tt.Events[i])
		}
	})
}

// WalkRuns streams the same total order as Walk but run at a time: f
// receives maximal index ranges [lo, hi) of consecutive events that
// tr.Threads[threadIdx] contributes before another thread's event sorts
// earlier. Concatenating the ranges in callback order yields exactly the
// merged event sequence. Bulk consumers (Annotate) iterate the range with
// a flat slice loop, paying the merge bookkeeping once per scheduler run
// instead of once per event.
func WalkRuns(tr *Trace, tieSeed int64, f func(threadIdx, lo, hi int)) {
	prio := make(map[int]int, len(tr.Threads))
	perm := rand.New(rand.NewSource(tieSeed)).Perm(len(tr.Threads))
	for i, p := range perm {
		prio[i] = p
	}

	h := &mergeHeap{}
	for i := range tr.Threads {
		if len(tr.Threads[i].Events) > 0 {
			h.items = append(h.items, mergeItem{tt: &tr.Threads[i], idx: i, prio: prio[i]})
		}
	}
	heap.Init(h)

	for h.Len() > 0 {
		it := &h.items[0]

		// The fair scheduler gives threads long uninterrupted runs, so
		// instead of re-sifting the heap after every event, stream events
		// from the top thread for as long as they still sort before every
		// other thread's head. The heap property puts the second-smallest
		// head at one of the root's children, and it cannot change while
		// only the root is consumed.
		limitTS, limitPrio := ^uint64(0), int(^uint(0)>>1)
		for c := 1; c <= 2 && c < h.Len(); c++ {
			o := &h.items[c]
			oe := &o.tt.Events[o.next]
			if oe.TS < limitTS || (oe.TS == limitTS && o.prio < limitPrio) {
				limitTS, limitPrio = oe.TS, o.prio
			}
		}

		lo, n := it.next, len(it.tt.Events)
		for {
			it.next++
			if it.next == n {
				f(it.idx, lo, it.next)
				heap.Pop(h)
				break
			}
			ne := &it.tt.Events[it.next]
			if ne.TS > limitTS || (ne.TS == limitTS && it.prio > limitPrio) {
				f(it.idx, lo, it.next)
				heap.Fix(h, 0)
				break
			}
		}
	}
}

// Merge interleaves the per-thread traces into one totally ordered trace,
// following Section 4 of the paper: events are ordered by timestamp; if two
// or more operations issued by different threads carry the same timestamp,
// ties are broken arbitrarily — here by a thread priority permutation drawn
// from tieSeed, so different seeds exercise different legal interleavings —
// and switchThread events are inserted between any two consecutive
// operations performed by different threads.
func Merge(tr *Trace, tieSeed int64) []Event {
	merged := make([]Event, 0, tr.NumEvents()+tr.NumEvents()/8)
	haveLast := false
	var last Event
	Walk(tr, tieSeed, func(_, _ int, ep *Event) {
		e := *ep
		if haveLast && last.Thread != e.Thread {
			merged = append(merged, Event{
				TS:     e.TS,
				Thread: last.Thread,
				Kind:   KindSwitch,
				Arg:    uint64(uint32(e.Thread)),
			})
		}
		merged = append(merged, e)
		last, haveLast = e, true
	})
	return merged
}

type mergeItem struct {
	tt   *ThreadTrace
	idx  int // index of tt in Trace.Threads
	next int
	prio int
}

type mergeHeap struct {
	items []mergeItem
}

func (h *mergeHeap) Len() int { return len(h.items) }

func (h *mergeHeap) Less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	ea, eb := a.tt.Events[a.next], b.tt.Events[b.next]
	if ea.TS != eb.TS {
		return ea.TS < eb.TS
	}
	return a.prio < b.prio
}

func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *mergeHeap) Push(x any) { h.items = append(h.items, x.(mergeItem)) }

func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
