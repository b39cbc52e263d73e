package core

import (
	"sort"

	"repro/internal/guest"
)

// Point aggregates all activations of one routine, by one thread, that had
// the same input size N: one point of the paper's cost plots.
type Point struct {
	N       uint64 // input size (a trms or rms value)
	Calls   uint64 // activations observed with this input size
	MinCost uint64 // minimum cumulative cost (basic blocks)
	MaxCost uint64 // maximum cumulative cost (worst-case running time plots)
	SumCost uint64 // total cost (for average-cost plots)
}

func (pt *Point) add(cost uint64) {
	if pt.Calls == 0 || cost < pt.MinCost {
		pt.MinCost = cost
	}
	if cost > pt.MaxCost {
		pt.MaxCost = cost
	}
	pt.Calls++
	pt.SumCost += cost
}

func (pt *Point) merge(o *Point) {
	if pt.Calls == 0 || (o.Calls > 0 && o.MinCost < pt.MinCost) {
		pt.MinCost = o.MinCost
	}
	if o.MaxCost > pt.MaxCost {
		pt.MaxCost = o.MaxCost
	}
	pt.Calls += o.Calls
	pt.SumCost += o.SumCost
}

// Activations aggregates every activation of one routine by one thread.
type Activations struct {
	Thread guest.ThreadID

	Calls   uint64
	SumCost uint64

	// SumTRMS and SumRMS are the metric totals over all activations; the
	// paper's input-volume metric is 1 - SumRMS/SumTRMS.
	SumTRMS uint64
	SumRMS  uint64

	// InducedThread and InducedExternal count induced first-accesses
	// performed by the routine's activations including their descendants
	// (the per-routine accounting of the paper's Figures 9, 18 and 19).
	InducedThread   uint64
	InducedExternal uint64

	// ByTRMS and ByRMS are the input-size histograms: one Point per
	// distinct input-size value, the raw material of every cost plot.
	ByTRMS map[uint64]*Point
	ByRMS  map[uint64]*Point
}

func newActivations(t guest.ThreadID) *Activations {
	return &Activations{
		Thread: t,
		ByTRMS: make(map[uint64]*Point),
		ByRMS:  make(map[uint64]*Point),
	}
}

// NewActivations returns an empty aggregate for activations by thread t,
// ready to Record into. It is the building block external analyzers (such as
// the parallel trace-replay pipeline) use to assemble profiles identical to
// the inline profiler's.
func NewActivations(t guest.ThreadID) *Activations { return newActivations(t) }

// Record folds one completed activation with final (already non-negative)
// metric values into the aggregate: counts, metric sums, induced-input split
// and both input-size histograms.
func (a *Activations) Record(trms, rms, inducedThread, inducedExternal, cost uint64) {
	a.Calls++
	a.SumCost += cost
	a.SumTRMS += trms
	a.SumRMS += rms
	a.InducedThread += inducedThread
	a.InducedExternal += inducedExternal

	pt := a.ByTRMS[trms]
	if pt == nil {
		pt = &Point{N: trms}
		a.ByTRMS[trms] = pt
	}
	pt.add(cost)

	pr := a.ByRMS[rms]
	if pr == nil {
		pr = &Point{N: rms}
		a.ByRMS[rms] = pr
	}
	pr.add(cost)
}

// clampMetric converts a completed activation's partial metric to its final
// value. At return the partial equals the true metric, which is
// non-negative; the clamp only defends against misuse on inner frames.
func clampMetric(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// Clone deep-copies the aggregate, including both histograms. The Profiler
// hands clones to materialized profiles so the originals keep accumulating,
// and pipeline workers clone into live snapshots for the same reason.
func (a *Activations) Clone() *Activations {
	out := &Activations{
		Thread:          a.Thread,
		Calls:           a.Calls,
		SumCost:         a.SumCost,
		SumTRMS:         a.SumTRMS,
		SumRMS:          a.SumRMS,
		InducedThread:   a.InducedThread,
		InducedExternal: a.InducedExternal,
		ByTRMS:          make(map[uint64]*Point, len(a.ByTRMS)),
		ByRMS:           make(map[uint64]*Point, len(a.ByRMS)),
	}
	for n, pt := range a.ByTRMS {
		cp := *pt
		out.ByTRMS[n] = &cp
	}
	for n, pt := range a.ByRMS {
		cp := *pt
		out.ByRMS[n] = &cp
	}
	return out
}

func (a *Activations) mergeInto(dst *Activations) {
	dst.Calls += a.Calls
	dst.SumCost += a.SumCost
	dst.SumTRMS += a.SumTRMS
	dst.SumRMS += a.SumRMS
	dst.InducedThread += a.InducedThread
	dst.InducedExternal += a.InducedExternal
	for n, pt := range a.ByTRMS {
		d := dst.ByTRMS[n]
		if d == nil {
			d = &Point{N: n}
			dst.ByTRMS[n] = d
		}
		d.merge(pt)
	}
	for n, pt := range a.ByRMS {
		d := dst.ByRMS[n]
		if d == nil {
			d = &Point{N: n}
			dst.ByRMS[n] = d
		}
		d.merge(pt)
	}
}

// RoutineProfile holds the thread-sensitive profiles of one routine:
// activations made by different threads are kept distinct, as in the paper,
// and can be combined afterwards with Merged.
type RoutineProfile struct {
	Name      string
	PerThread map[guest.ThreadID]*Activations
}

// Merged combines the routine's per-thread profiles into one.
func (r *RoutineProfile) Merged() *Activations {
	out := newActivations(0)
	for _, tid := range r.ThreadIDs() {
		r.PerThread[tid].mergeInto(out)
	}
	return out
}

// ThreadIDs returns the ids of threads that activated the routine, sorted.
func (r *RoutineProfile) ThreadIDs() []guest.ThreadID {
	ids := make([]guest.ThreadID, 0, len(r.PerThread))
	for id := range r.PerThread {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// DistinctTRMS returns the number of distinct trms values collected for the
// routine across all threads (|trms_r| in the profile-richness metric).
func (r *RoutineProfile) DistinctTRMS() int {
	seen := make(map[uint64]struct{})
	for _, a := range r.PerThread {
		for n := range a.ByTRMS {
			seen[n] = struct{}{}
		}
	}
	return len(seen)
}

// DistinctRMS returns the number of distinct rms values collected for the
// routine across all threads (|rms_r|).
func (r *RoutineProfile) DistinctRMS() int {
	seen := make(map[uint64]struct{})
	for _, a := range r.PerThread {
		for n := range a.ByRMS {
			seen[n] = struct{}{}
		}
	}
	return len(seen)
}

// Profile is a complete input-sensitive profile of one execution.
type Profile struct {
	Routines map[string]*RoutineProfile

	// InducedThread and InducedExternal are execution-global counts of
	// induced first-accesses, each event counted once (the accounting of
	// the paper's Figure 17).
	InducedThread   uint64
	InducedExternal uint64
}

func newProfile() *Profile {
	return &Profile{Routines: make(map[string]*RoutineProfile)}
}

// NewProfile returns an empty profile, ready to AddActivations or Merge
// into. The inline Profiler builds its profile internally; external
// analyzers (trace-replay pipelines, importers) start from NewProfile.
func NewProfile() *Profile { return newProfile() }

// AddActivations folds an externally built aggregate into the profile under
// the given routine name. If the (name, a.Thread) slot is empty, the profile
// adopts a directly — the caller must not mutate it afterwards; otherwise a
// is merged into the existing aggregate.
func (p *Profile) AddActivations(name string, a *Activations) {
	rp := p.Routines[name]
	if rp == nil {
		rp = &RoutineProfile{Name: name, PerThread: make(map[guest.ThreadID]*Activations)}
		p.Routines[name] = rp
	}
	dst := rp.PerThread[a.Thread]
	if dst == nil {
		rp.PerThread[a.Thread] = a
		return
	}
	a.mergeInto(dst)
}

func (p *Profile) record(name string, t guest.ThreadID, f *Frame[uint32], cost uint64) {
	rp := p.Routines[name]
	if rp == nil {
		rp = &RoutineProfile{Name: name, PerThread: make(map[guest.ThreadID]*Activations)}
		p.Routines[name] = rp
	}
	a := rp.PerThread[t]
	if a == nil {
		a = newActivations(t)
		rp.PerThread[t] = a
	}
	f.RecordInto(a, cost)
}

// Routine returns the profile of the named routine, or nil.
func (p *Profile) Routine(name string) *RoutineProfile { return p.Routines[name] }

// RoutineNames returns all profiled routine names, sorted.
func (p *Profile) RoutineNames() []string {
	names := make([]string, 0, len(p.Routines))
	for n := range p.Routines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge folds another profile into p: per-routine, per-thread aggregates and
// histograms are combined, as are the global induced counters. Use it to
// aggregate profiles from repeated runs of the same program (thread ids must
// mean the same thing in both runs, which deterministic workloads guarantee).
func (p *Profile) Merge(o *Profile) {
	p.InducedThread += o.InducedThread
	p.InducedExternal += o.InducedExternal
	for name, orp := range o.Routines {
		rp := p.Routines[name]
		if rp == nil {
			rp = &RoutineProfile{Name: name, PerThread: make(map[guest.ThreadID]*Activations)}
			p.Routines[name] = rp
		}
		for tid, oa := range orp.PerThread {
			a := rp.PerThread[tid]
			if a == nil {
				a = newActivations(tid)
				rp.PerThread[tid] = a
			}
			oa.mergeInto(a)
		}
	}
}
