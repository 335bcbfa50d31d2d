// Package cache models the data-cache hierarchy between the simulated
// core and memory: physically-indexed set-associative L1D, L2, and a
// shared LLC with true-LRU replacement, plus an IP-based stride
// prefetcher. The hierarchy is what makes the paper's distinctions
// meaningful: IBS/PEBS only reports a page as memory-hot when the
// data source is beyond the LLC, HWPC gating watches LLC misses, and
// prefetched lines are served from cache so TMP's demand-load focus
// can ignore them.
package cache

import "fmt"

// LineShift is log2 of the 64-byte cache line size.
const (
	LineShift = 6
	LineSize  = 1 << LineShift
)

// HitLevel reports where an access was satisfied.
type HitLevel int

const (
	HitL1 HitLevel = iota
	HitL2
	HitLLC
	// MissAll means the access went to memory (either tier).
	MissAll
)

// String names the hit level.
func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitLLC:
		return "LLC"
	case MissAll:
		return "mem"
	default:
		return fmt.Sprintf("level(%d)", int(h))
	}
}

// Config sizes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
}

// Lines returns the level's line capacity.
func (c Config) Lines() int { return c.SizeBytes / LineSize }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: size (%d) and ways (%d) must be positive", c.SizeBytes, c.Ways)
	}
	lines := c.Lines()
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// Stats counts events at one level.
type Stats struct {
	Hits         uint64
	Misses       uint64
	PrefetchHits uint64 // demand hits on lines brought in by the prefetcher
}

// Per-way flag bits.
const (
	flagDirty      uint8 = 1 << iota
	flagPrefetched       // line was filled by the prefetcher and not yet demanded
)

// level is one set-associative cache array, stored flat: set s owns
// ways [s*ways, (s+1)*ways) of every per-way array. A tag holds
// line+1, so 0 marks an empty way and a probe is one compare.
type level struct {
	tags  []uint64
	flags []uint8
	lru   []uint64
	ways  int
	mask  uint64
	stamp uint64
	stats Stats
}

func newLevel(c Config) *level {
	lines := c.Lines()
	return &level{
		tags:  make([]uint64, lines),
		flags: make([]uint8, lines),
		lru:   make([]uint64, lines),
		ways:  c.Ways,
		mask:  uint64(lines/c.Ways - 1),
	}
}

// find returns the way holding line, or -1, without touching LRU or
// stats.
func (l *level) find(line uint64) int {
	base := int(line&l.mask) * l.ways
	tag := line + 1
	for i, t := range l.tags[base : base+l.ways] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// lookup probes for the line; on a hit it refreshes LRU and clears the
// prefetched flag (returning whether it had been set). It returns the
// way, or -1 on a miss.
func (l *level) lookup(line uint64) (w int, wasPrefetch bool) {
	w = l.find(line)
	if w < 0 {
		l.stats.Misses++
		return -1, false
	}
	l.stamp++
	l.lru[w] = l.stamp
	wasPrefetch = l.flags[w]&flagPrefetched != 0
	l.flags[w] &^= flagPrefetched
	l.stats.Hits++
	if wasPrefetch {
		l.stats.PrefetchHits++
	}
	return w, wasPrefetch
}

// contains probes without updating LRU or stats.
func (l *level) contains(line uint64) bool { return l.find(line) >= 0 }

// fill installs a line the level does not hold into the set's first
// empty way, or else its least recently used one. Lines never leave a
// level except by replacement, so an empty way was never filled and
// still has stamp 0, below every filled way's: the first way with the
// smallest stamp is exactly that choice.
func (l *level) fill(line uint64, flags uint8) {
	base := int(line&l.mask) * l.ways
	lru := l.lru[base : base+l.ways]
	v, oldest := 0, lru[0]
	for i, stamp := range lru {
		if stamp < oldest {
			v, oldest = i, stamp
		}
	}
	l.stamp++
	l.tags[base+v] = line + 1
	l.flags[base+v] = flags
	lru[v] = l.stamp
}

// Hierarchy is one core's L1/L2 plus a shared LLC. Multiple cores
// share the llc pointer.
type Hierarchy struct {
	l1, l2 *level
	llc    *SharedLLC
	pf     *Prefetcher
}

// SharedLLC is the last-level cache shared by all cores.
type SharedLLC struct {
	lvl *level
}

// NewSharedLLC builds the shared LLC.
func NewSharedLLC(c Config) (*SharedLLC, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &SharedLLC{lvl: newLevel(c)}, nil
}

// Stats returns the LLC's counters.
func (s *SharedLLC) Stats() Stats { return s.lvl.stats }

// DefaultL1, DefaultL2 and DefaultLLC size a scaled-down hierarchy.
// The evaluation scales every capacity (workload footprint, tiers,
// caches) by roughly 16x from the paper's Ryzen 3600X testbed so that
// experiments run in seconds; the *ratios* that drive every figure are
// preserved.
var (
	DefaultL1  = Config{SizeBytes: 32 << 10, Ways: 8}
	DefaultL2  = Config{SizeBytes: 256 << 10, Ways: 8}
	DefaultLLC = Config{SizeBytes: 2 << 20, Ways: 16}
)

// NewHierarchy builds one core's private levels on top of a shared
// LLC. pf may be nil to disable prefetching.
func NewHierarchy(l1, l2 Config, llc *SharedLLC, pf *Prefetcher) (*Hierarchy, error) {
	if err := l1.Validate(); err != nil {
		return nil, err
	}
	if err := l2.Validate(); err != nil {
		return nil, err
	}
	if llc == nil {
		return nil, fmt.Errorf("cache: shared LLC required")
	}
	return &Hierarchy{l1: newLevel(l1), l2: newLevel(l2), llc: llc, pf: pf}, nil
}

// Result describes one access's outcome.
type Result struct {
	Level HitLevel
	// PrefetchHit is true when the access hit a line the prefetcher
	// had staged; the paper's TMP treats such loads as non-demand
	// evidence (they would have been cache hits anyway).
	PrefetchHit bool
}

// Access performs a demand access to a physical byte address, filling
// all levels on a miss (inclusive hierarchy), training the prefetcher
// with (ip, line), and returning where the data came from.
func (h *Hierarchy) Access(paddr uint64, ip uint64, isStore bool) Result {
	line := paddr >> LineShift
	res := h.access(line, isStore)
	if h.pf != nil {
		for _, pline := range h.pf.Train(ip, line) {
			h.prefetchFill(pline)
		}
	}
	return res
}

func (h *Hierarchy) access(line uint64, isStore bool) Result {
	var l1Flags uint8 // a store dirties the line in L1 only
	if isStore {
		l1Flags = flagDirty
	}
	if w, pf := h.l1.lookup(line); w >= 0 {
		if isStore {
			h.l1.flags[w] |= flagDirty
		}
		return Result{Level: HitL1, PrefetchHit: pf}
	}
	if w, pf := h.l2.lookup(line); w >= 0 {
		h.l1.fill(line, l1Flags)
		return Result{Level: HitL2, PrefetchHit: pf}
	}
	if w, pf := h.llc.lvl.lookup(line); w >= 0 {
		h.l2.fill(line, 0)
		h.l1.fill(line, l1Flags)
		return Result{Level: HitLLC, PrefetchHit: pf}
	}
	// Memory access; fill inclusively.
	h.llc.lvl.fill(line, 0)
	h.l2.fill(line, 0)
	h.l1.fill(line, l1Flags)
	return Result{Level: MissAll}
}

// prefetchFill stages a line into the LLC and L2 without touching L1,
// marking it prefetched. Lines already cached anywhere are skipped.
func (h *Hierarchy) prefetchFill(line uint64) {
	if h.l1.contains(line) || h.l2.contains(line) || h.llc.lvl.contains(line) {
		return
	}
	h.llc.lvl.fill(line, flagPrefetched)
	h.l2.fill(line, flagPrefetched)
	if h.pf != nil {
		h.pf.Issued++
	}
}

// L1Stats returns the private L1 counters.
func (h *Hierarchy) L1Stats() Stats { return h.l1.stats }

// L2Stats returns the private L2 counters.
func (h *Hierarchy) L2Stats() Stats { return h.l2.stats }

// LLCStats returns the shared LLC counters.
func (h *Hierarchy) LLCStats() Stats { return h.llc.lvl.stats }
