// Package workloads implements the guest programs of the paper's evaluation
// as from-scratch simulations: twelve OpenMP-style kernels standing in for
// the SPEC OMP2012 components of Table 1, PARSEC-style pipeline and
// data-parallel workloads (dedup, fluidanimate, vips with its im_generate
// and wbuffer_write_thread routines), a MySQL-style database server with the
// mysql_select, buf_flush_buffered_writes and Protocol::send_eof routines
// driven by a mysqlslap-style load generator, the paper's micro-examples
// (Figures 1a, 1b, 2, 3), and a sequential algorithm suite used to validate
// cost plots against known asymptotics.
//
// Every workload is a deterministic function of its Params, so profiles are
// reproducible across runs and across online/replay profiling.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/guest"
	"repro/internal/telemetry"
)

// Params scales a workload.
type Params struct {
	// Threads is the number of worker threads (where the workload is
	// parallel). Zero selects the spec default.
	Threads int
	// Size is the problem-size knob; its meaning is workload-specific
	// (particles, rows, queries, ...). Zero selects the spec default.
	Size int
	// Seed perturbs generated data deterministically.
	Seed int64
	// Timeslice overrides the scheduler quantum (zero: machine default).
	Timeslice int
	// BatchMax caps the machine's memory-event batch size
	// (guest.Config.BatchMax); zero keeps the default. The metamorphic
	// harness perturbs it to prove batch boundaries never leak into
	// profiles.
	BatchMax int
	// Telemetry, when non-nil, receives the machine's guest/* metrics at
	// the end of the run (guest.Config.Telemetry).
	Telemetry *telemetry.Registry
}

func (p Params) withDefaults(s Spec) Params {
	if p.Threads <= 0 {
		p.Threads = s.DefaultThreads
	}
	if p.Threads <= 0 {
		p.Threads = 4
	}
	if p.Size <= 0 {
		p.Size = s.DefaultSize
	}
	return p
}

// Spec describes one registered workload.
type Spec struct {
	Name        string
	Suite       string // "omp2012", "parsec", "mysql", "micro", "seq" or "ispl"
	Description string

	DefaultThreads int
	DefaultSize    int

	// Build performs machine-level setup (static data, devices,
	// synchronization objects) and returns the main thread's body.
	Build func(m *guest.Machine, p Params) func(*guest.Thread)
}

var registry = make(map[string]Spec)

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workloads: duplicate registration of " + s.Name)
	}
	registry[s.Name] = s
}

// Get returns the named workload spec.
func Get(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	return s, nil
}

// Names returns all registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Suite returns the specs of one suite, sorted by name.
func Suite(suite string) []Spec {
	var out []Spec
	for _, n := range Names() {
		if registry[n].Suite == suite {
			out = append(out, registry[n])
		}
	}
	return out
}

// Run executes the workload on a fresh machine with the given tools.
func Run(s Spec, p Params, tools ...guest.Tool) (*guest.Machine, error) {
	p = p.withDefaults(s)
	m := guest.NewMachine(guest.Config{
		Timeslice: p.Timeslice, Tools: tools,
		BatchMax:  p.BatchMax,
		Telemetry: p.Telemetry,
	})
	body := s.Build(m, p)
	return m, m.Run(func(th *guest.Thread) {
		body(th)
		if tm, ok := m.Aux.(*team); ok {
			tm.shutdown(th)
		}
	})
}

// RunByName looks up and executes a workload.
func RunByName(name string, p Params, tools ...guest.Tool) (*guest.Machine, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	return Run(s, p, tools...)
}

// team is an OpenMP-style pool of persistent worker threads. Parallel
// regions dispatch to the same workers run after run, the way an OpenMP
// runtime reuses its team — which also means each worker accumulates one
// per-thread shadow memory for the whole execution instead of paying a
// fresh one per region.
type team struct {
	size    int
	kids    []*guest.Thread
	start   []*guest.Sem
	done    *guest.Sem
	region  func(c *guest.Thread, lo, hi int)
	routine string
	n       int
	stop    bool
}

// teamFor returns the machine's thread team, creating (and, on first use,
// starting) it with the given size.
func teamFor(th *guest.Thread, threads int) *team {
	m := th.Machine()
	if tm, ok := m.Aux.(*team); ok {
		return tm
	}
	if threads < 1 {
		threads = 1
	}
	tm := &team{size: threads, done: m.NewSem("team-done", 0)}
	for w := 0; w < threads; w++ {
		w := w
		tm.start = append(tm.start, m.NewSem(fmt.Sprintf("team-start-%d", w), 0))
		tm.kids = append(tm.kids, th.Spawn(fmt.Sprintf("omp-worker-%d", w), func(c *guest.Thread) {
			for {
				c.P(tm.start[w])
				if tm.stop {
					return
				}
				lo := w * tm.n / tm.size
				hi := (w + 1) * tm.n / tm.size
				c.Fn(tm.routine, func() {
					tm.region(c, lo, hi)
				})
				c.V(tm.done)
			}
		}))
	}
	m.Aux = tm
	return tm
}

// shutdown retires the team's workers; Run calls it after the workload body.
func (tm *team) shutdown(th *guest.Thread) {
	tm.stop = true
	for _, s := range tm.start {
		th.V(s)
	}
	for _, k := range tm.kids {
		th.Join(k)
	}
}

// parallelFor runs an OpenMP-style parallel loop on the machine's persistent
// worker team: each worker executes a contiguous chunk of [0, n) inside a
// routine activation named routine; the caller blocks until all finish.
func parallelFor(th *guest.Thread, threads, n int, routine string, body func(c *guest.Thread, lo, hi int)) {
	tm := teamFor(th, threads)
	tm.region, tm.routine, tm.n = body, routine, n
	for _, s := range tm.start {
		th.V(s)
	}
	for range tm.kids {
		th.P(tm.done)
	}
}

// xorshift is a tiny deterministic PRNG for workload data generation on the
// host side (guest data is then Preloaded).
type xorshift uint64

func newRand(seed int64) *xorshift {
	x := xorshift(uint64(seed)*2685821657736338717 + 1442695040888963407)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(x.next() % uint64(n))
}

// preloadRand fills n cells at base with deterministic pseudo-random values
// bounded by mod (0 means full range).
func preloadRand(m *guest.Machine, base guest.Addr, n int, seed int64, mod uint64) {
	rng := newRand(seed)
	vals := make([]uint64, n)
	for i := range vals {
		v := rng.next()
		if mod != 0 {
			v %= mod
		}
		vals[i] = v
	}
	m.Preload(base, vals)
}
