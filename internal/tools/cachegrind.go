package tools

import (
	"sort"

	"repro/internal/guest"
)

// Cachegrind simulates a two-level data-cache hierarchy (a first-level D1
// cache and a last-level LL cache) on the guest's memory accesses and
// attributes hits and misses to the routine performing them — the analysis
// of Valgrind's cachegrind, restricted to data accesses (the guest has no
// instruction stream to shadow). It extends the tool suite beyond the
// paper's Table 1 columns; the geometry defaults mirror cachegrind's
// defaults scaled to cell (word) granularity.
type Cachegrind struct {
	guest.BaseTool
	env guest.Env

	d1, ll *cacheSim

	stacks map[guest.ThreadID][]guest.RoutineID
	stats  map[guest.RoutineID]*CacheStats
	global CacheStats
}

// CacheStats counts one routine's memory behaviour (exclusive: accesses
// performed while the routine was topmost).
type CacheStats struct {
	Name     string
	Reads    uint64
	Writes   uint64
	D1Misses uint64
	LLMisses uint64
}

// CacheConfig sizes one simulated cache level, in guest cells (words).
type CacheConfig struct {
	// Cells is the total capacity in memory cells.
	Cells int
	// LineCells is the line size in cells.
	LineCells int
	// Assoc is the set associativity.
	Assoc int
}

// Default geometries: 32 KB 8-way D1 and 1 MB 16-way LL with 64-byte lines,
// expressed at 8-byte cell granularity.
var (
	DefaultD1 = CacheConfig{Cells: 4096, LineCells: 8, Assoc: 8}
	DefaultLL = CacheConfig{Cells: 131072, LineCells: 8, Assoc: 16}
)

// NewCachegrind returns a Cachegrind with the default geometry.
func NewCachegrind() *Cachegrind {
	return NewCachegrindWith(DefaultD1, DefaultLL)
}

// NewCachegrindWith returns a Cachegrind with custom cache geometries.
func NewCachegrindWith(d1, ll CacheConfig) *Cachegrind {
	return &Cachegrind{
		d1:     newCacheSim(d1),
		ll:     newCacheSim(ll),
		stacks: make(map[guest.ThreadID][]guest.RoutineID),
		stats:  make(map[guest.RoutineID]*CacheStats),
	}
}

// cacheSim is one set-associative cache level with LRU replacement.
type cacheSim struct {
	lineShift uint
	setMask   uint64
	assoc     int
	// tags[set*assoc+way] holds line tags + 1 (0 = invalid).
	tags []uint64
	// ages[set*assoc+way] is the LRU stamp.
	ages []uint64
	tick uint64
}

func newCacheSim(cfg CacheConfig) *cacheSim {
	if cfg.Cells <= 0 || cfg.LineCells <= 0 || cfg.Assoc <= 0 {
		panic("tools: invalid cache geometry")
	}
	lines := cfg.Cells / cfg.LineCells
	sets := lines / cfg.Assoc
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two for mask indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	shift := uint(0)
	for (1 << shift) < cfg.LineCells {
		shift++
	}
	return &cacheSim{
		lineShift: shift,
		setMask:   uint64(sets - 1),
		assoc:     cfg.Assoc,
		tags:      make([]uint64, sets*cfg.Assoc),
		ages:      make([]uint64, sets*cfg.Assoc),
	}
}

// access returns true on a miss.
func (c *cacheSim) access(a guest.Addr) bool {
	line := uint64(a) >> c.lineShift
	set := int(line & c.setMask)
	base := set * c.assoc
	c.tick++
	tag := line + 1
	victim := base
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.ages[i] = c.tick
			return false
		}
		if c.ages[i] < c.ages[victim] {
			victim = i
		}
	}
	c.tags[victim] = tag
	c.ages[victim] = c.tick
	return true
}

func (cg *Cachegrind) routineStats(t guest.ThreadID) *CacheStats {
	stack := cg.stacks[t]
	if len(stack) == 0 {
		return &cg.global
	}
	r := stack[len(stack)-1]
	s := cg.stats[r]
	if s == nil {
		s = &CacheStats{Name: cg.env.RoutineName(r)}
		cg.stats[r] = s
	}
	return s
}

// Attach implements guest.Tool.
func (cg *Cachegrind) Attach(env guest.Env) { cg.env = env }

// Call implements guest.Tool.
func (cg *Cachegrind) Call(t guest.ThreadID, r guest.RoutineID, bb uint64) {
	cg.stacks[t] = append(cg.stacks[t], r)
}

// Return implements guest.Tool.
func (cg *Cachegrind) Return(t guest.ThreadID, r guest.RoutineID, bb uint64) {
	if s := cg.stacks[t]; len(s) > 0 {
		cg.stacks[t] = s[:len(s)-1]
	}
}

// MemBatch implements guest.Tool. Kernel accesses are DMA-like: they
// touch the hierarchy too. A batch has no call or return inside it, so
// all of it is charged to one routine.
func (cg *Cachegrind) MemBatch(t guest.ThreadID, _ uint64, events []guest.MemEvent) {
	s := cg.routineStats(t)
	for _, e := range events {
		if e.IsWrite() {
			s.Writes++
		} else {
			s.Reads++
		}
		if cg.d1.access(e.Addr()) {
			s.D1Misses++
			if cg.ll.access(e.Addr()) {
				s.LLMisses++
			}
		}
	}
}

// Totals returns the whole-execution counters.
func (cg *Cachegrind) Totals() CacheStats {
	total := cg.global
	total.Name = "<total>"
	for _, s := range cg.stats {
		total.Reads += s.Reads
		total.Writes += s.Writes
		total.D1Misses += s.D1Misses
		total.LLMisses += s.LLMisses
	}
	return total
}

// PerRoutine returns per-routine counters sorted by decreasing D1 misses.
func (cg *Cachegrind) PerRoutine() []*CacheStats {
	out := make([]*CacheStats, 0, len(cg.stats))
	for _, s := range cg.stats {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].D1Misses != out[j].D1Misses {
			return out[i].D1Misses > out[j].D1Misses
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// MissRate returns the D1 miss rate of the whole execution.
func (cg *Cachegrind) MissRate() float64 {
	t := cg.Totals()
	accesses := t.Reads + t.Writes
	if accesses == 0 {
		return 0
	}
	return float64(t.D1Misses) / float64(accesses)
}
