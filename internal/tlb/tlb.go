// Package tlb models per-core translation lookaside buffers: a small
// L1 dTLB backed by a larger unified L2 (STLB), both set-associative
// with true-LRU replacement. Entries carry a dirty flag so the
// simulator reproduces the x86 behaviour the paper leans on: the A bit
// is only set by a page walk (so clearing A without a shootdown delays
// its re-set until the TLB entry is evicted), while a store through a
// clean TLB entry forces a walk to set the PTE's D bit regardless of
// TLB hit status (§II-B, [16]).
package tlb

import (
	"fmt"

	"tieredmem/internal/mem"
)

// Entry is one cached translation.
type Entry struct {
	VPN      mem.VPN
	PFN      mem.PFN
	Writable bool
	// Dirty mirrors the PTE D bit at fill time; a store through an
	// entry with Dirty=false must perform a page walk to set the PTE
	// D bit and then sets Dirty here.
	Dirty bool
}

// Config sizes one TLB level.
type Config struct {
	Entries int
	Ways    int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 {
		return fmt.Errorf("tlb: entries (%d) and ways (%d) must be positive", c.Entries, c.Ways)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: entries (%d) not divisible by ways (%d)", c.Entries, c.Ways)
	}
	return nil
}

// Stats counts hits and misses for one level.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// level is one set-associative TLB array, stored flat: set s owns
// slots [s*ways, (s+1)*ways) of every per-slot array. A lookup scans
// only the compact tags; the Entry payload and the LRU stamps live in
// arrays of their own. A slot is valid only while its generation
// equals the level's, so a full flush is one increment; generation 0
// marks a slot that was never filled or was flushed by page.
type level struct {
	tags    []mem.VPN
	gens    []uint32
	lru     []uint64
	entries []Entry
	ways    int
	mask    uint64
	gen     uint32
	stamp   uint64
	stats   Stats
}

func newLevel(c Config) *level {
	nsets := c.Entries / c.Ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("tlb: set count %d must be a power of two", nsets))
	}
	return &level{
		tags:    make([]mem.VPN, c.Entries),
		gens:    make([]uint32, c.Entries),
		lru:     make([]uint64, c.Entries),
		entries: make([]Entry, c.Entries),
		ways:    c.Ways,
		mask:    uint64(nsets - 1),
		gen:     1,
	}
}

// find returns the slot holding vpn, or -1, without touching LRU or
// stats.
func (l *level) find(vpn mem.VPN) int {
	base := int(uint64(vpn)&l.mask) * l.ways
	tags := l.tags[base : base+l.ways]
	for i, tag := range tags {
		if tag == vpn && l.gens[base+i] == l.gen {
			return base + i
		}
	}
	return -1
}

// touch finds vpn and refreshes its LRU stamp, counting a miss when
// it is absent. Hits are left to the caller, because MarkDirty's
// refresh is not an access.
func (l *level) touch(vpn mem.VPN) int {
	i := l.find(vpn)
	if i < 0 {
		l.stats.Misses++
		return -1
	}
	l.stamp++
	l.lru[i] = l.stamp
	return i
}

// insert fills the translation into the set's first invalid slot, or
// else its least recently used one, and returns the slot.
func (l *level) insert(e Entry) int {
	base := int(uint64(e.VPN)&l.mask) * l.ways
	gens, lru := l.gens[base:base+l.ways], l.lru[base:base+l.ways]
	v := 0
	for i, g := range gens {
		if g != l.gen {
			v = i
			break
		}
		if lru[i] < lru[v] {
			v = i
		}
	}
	l.stamp++
	gens[v] = l.gen
	lru[v] = l.stamp
	v += base
	l.tags[v] = e.VPN
	l.entries[v] = e
	return v
}

func (l *level) flushPage(vpn mem.VPN) bool {
	i := l.find(vpn)
	if i < 0 {
		return false
	}
	l.gens[i] = 0
	return true
}

// flushAll invalidates every slot by moving to the next generation.
// When the counter wraps, every slot is cleared once so that no
// pre-wrap generation can match again.
func (l *level) flushAll() {
	l.gen++
	if l.gen == 0 {
		clear(l.gens)
		l.gen = 1
	}
}

// TLB is a two-level per-core translation cache.
type TLB struct {
	l1, l2 *level
	// Flushes counts full invalidations (context switches, IPI
	// shootdowns); FlushedPages counts single-page invalidations.
	Flushes      uint64
	FlushedPages uint64
}

// DefaultL1 and DefaultL2 size the TLB like a Zen-2-class core
// (64-entry L1 dTLB, 2048-entry L2 STLB).
var (
	DefaultL1 = Config{Entries: 64, Ways: 4}
	DefaultL2 = Config{Entries: 2048, Ways: 16}
)

// New builds a TLB with the given level configurations.
func New(l1, l2 Config) (*TLB, error) {
	if err := l1.Validate(); err != nil {
		return nil, err
	}
	if err := l2.Validate(); err != nil {
		return nil, err
	}
	return &TLB{l1: newLevel(l1), l2: newLevel(l2)}, nil
}

// MustNew is New for known-good configurations.
func MustNew(l1, l2 Config) *TLB {
	t, err := New(l1, l2)
	if err != nil {
		panic(err)
	}
	return t
}

// HitLevel identifies which TLB level served a translation.
type HitLevel int

const (
	// HitNone means both levels missed (a page walk follows).
	HitNone HitLevel = iota
	// HitL1 is a first-level dTLB hit (free).
	HitL1
	// HitL2 is an STLB hit (a couple of cycles).
	HitL2
)

// Lookup finds a cached translation and reports which level served
// it. On an L2 hit the entry is promoted into L1. The returned
// pointer stays valid until the next mutation and allows the core to
// update the Dirty flag in place.
func (t *TLB) Lookup(vpn mem.VPN) (*Entry, HitLevel) {
	if i := t.l1.touch(vpn); i >= 0 {
		t.l1.stats.Hits++
		return &t.l1.entries[i], HitL1
	}
	if i := t.l2.touch(vpn); i >= 0 {
		t.l2.stats.Hits++
		// L1 victims are simply dropped; L2 is inclusive here. Return
		// the L1 copy so Dirty updates land in the closest level.
		return &t.l1.entries[t.l1.insert(t.l2.entries[i])], HitL2
	}
	return nil, HitNone
}

// Insert caches a translation in both levels after a page walk.
func (t *TLB) Insert(e Entry) {
	t.l2.insert(e)
	t.l1.insert(e)
}

// MarkDirty updates the dirty flag of a cached translation in both
// levels (after the walk that set the PTE D bit). It refreshes each
// copy's recency, so the L2 copy of a page stored through L1 stays
// resident across the next L2 conflict, and counts a miss in a level
// that no longer holds the page.
func (t *TLB) MarkDirty(vpn mem.VPN) {
	if i := t.l1.touch(vpn); i >= 0 {
		t.l1.entries[i].Dirty = true
	}
	if i := t.l2.touch(vpn); i >= 0 {
		t.l2.entries[i].Dirty = true
	}
}

// FlushPage invalidates one translation (invlpg) in both levels,
// counting one flushed page when either level held it.
func (t *TLB) FlushPage(vpn mem.VPN) {
	in1 := t.l1.flushPage(vpn)
	in2 := t.l2.flushPage(vpn)
	if in1 || in2 {
		t.FlushedPages++
	}
}

// FlushAll invalidates every translation (CR3 reload / IPI shootdown)
// in constant time.
func (t *TLB) FlushAll() {
	t.l1.flushAll()
	t.l2.flushAll()
	t.Flushes++
}

// L1Stats returns hit/miss counts for the first level.
func (t *TLB) L1Stats() Stats { return t.l1.stats }

// L2Stats returns hit/miss counts for the second level.
func (t *TLB) L2Stats() Stats { return t.l2.stats }

// Misses returns the count of accesses that missed both levels, i.e.
// the page-walk count attributable to translation.
func (t *TLB) Misses() uint64 { return t.l2.stats.Misses }
