package cache

import (
	"slices"
	"testing"
)

// naiveWay, naiveLevel and naiveHierarchy are the reference model:
// the straightforward [][]struct true-LRU hierarchy, where each way
// carries its own valid bit, flags and LRU stamp, and a fill first
// looks for the line already being present. The flat levels must
// match it access for access.
type naiveWay struct {
	tag        uint64
	lru        uint64
	valid      bool
	dirty      bool
	prefetched bool
}

type naiveLevel struct {
	sets  [][]naiveWay
	mask  uint64
	stamp uint64
	stats Stats
}

func newNaiveLevel(c Config) *naiveLevel {
	sets := c.Lines() / c.Ways
	l := &naiveLevel{sets: make([][]naiveWay, sets), mask: uint64(sets - 1)}
	for i := range l.sets {
		l.sets[i] = make([]naiveWay, c.Ways)
	}
	return l
}

func (l *naiveLevel) lookup(line uint64) (hit, wasPrefetch bool) {
	set := l.sets[line&l.mask]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			l.stamp++
			set[i].lru = l.stamp
			wasPrefetch = set[i].prefetched
			set[i].prefetched = false
			l.stats.Hits++
			if wasPrefetch {
				l.stats.PrefetchHits++
			}
			return true, wasPrefetch
		}
	}
	l.stats.Misses++
	return false, false
}

func (l *naiveLevel) contains(line uint64) bool {
	set := l.sets[line&l.mask]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return true
		}
	}
	return false
}

func (l *naiveLevel) fill(line uint64, dirty, prefetched bool) {
	set := l.sets[line&l.mask]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			if dirty {
				set[i].dirty = true
			}
			return
		}
	}
	v := 0
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	l.stamp++
	set[v] = naiveWay{tag: line, lru: l.stamp, valid: true, dirty: dirty, prefetched: prefetched}
}

func (l *naiveLevel) setDirty(line uint64) {
	set := l.sets[line&l.mask]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].dirty = true
			return
		}
	}
}

type naiveHierarchy struct {
	l1, l2, llc *naiveLevel
	pf          *Prefetcher
}

func (h *naiveHierarchy) Access(paddr, ip uint64, isStore bool) Result {
	line := paddr >> LineShift
	res := h.access(line, isStore)
	for _, pline := range h.pf.Train(ip, line) {
		if h.l1.contains(pline) || h.l2.contains(pline) || h.llc.contains(pline) {
			continue
		}
		h.llc.fill(pline, false, true)
		h.l2.fill(pline, false, true)
		h.pf.Issued++
	}
	return res
}

func (h *naiveHierarchy) access(line uint64, isStore bool) Result {
	if hit, pf := h.l1.lookup(line); hit {
		if isStore {
			h.l1.setDirty(line)
		}
		return Result{Level: HitL1, PrefetchHit: pf}
	}
	if hit, pf := h.l2.lookup(line); hit {
		h.l1.fill(line, isStore, false)
		return Result{Level: HitL2, PrefetchHit: pf}
	}
	if hit, pf := h.llc.lookup(line); hit {
		h.l2.fill(line, false, false)
		h.l1.fill(line, isStore, false)
		return Result{Level: HitLLC, PrefetchHit: pf}
	}
	h.llc.fill(line, false, false)
	h.l2.fill(line, false, false)
	h.l1.fill(line, isStore, false)
	return Result{Level: MissAll}
}

// resident is one way's observable state: its line and flags when
// valid, and its recency rank among the set's valid ways (0 = least
// recent).
type resident struct {
	valid, dirty, prefetched bool
	line                     uint64
	rank                     int
}

// rankWays turns per-way stamps into recency ranks among valid ways.
func rankWays(ws []resident, stamps []uint64) {
	for i := range ws {
		for j := range ws {
			if ws[i].valid && ws[j].valid && stamps[j] < stamps[i] {
				ws[i].rank++
			}
		}
	}
}

// set appends set s's ways to buf[:0].
func (l *level) set(s int, buf []resident, stamps []uint64) []resident {
	ws, stamps := buf[:0], stamps[:0]
	for w := s * l.ways; w < (s+1)*l.ways; w++ {
		r := resident{valid: l.tags[w] != 0}
		if r.valid {
			r.dirty = l.flags[w]&flagDirty != 0
			r.prefetched = l.flags[w]&flagPrefetched != 0
			r.line = l.tags[w] - 1
		}
		ws, stamps = append(ws, r), append(stamps, l.lru[w])
	}
	rankWays(ws, stamps)
	return ws
}

func (l *naiveLevel) set(s int, buf []resident, stamps []uint64) []resident {
	ws, stamps := buf[:0], stamps[:0]
	for _, w := range l.sets[s] {
		r := resident{valid: w.valid}
		if r.valid {
			r.dirty, r.prefetched, r.line = w.dirty, w.prefetched, w.tag
		}
		ws, stamps = append(ws, r), append(stamps, w.lru)
	}
	rankWays(ws, stamps)
	return ws
}

func compareLevels(t *testing.T, op int, name string, got *level, want *naiveLevel) {
	t.Helper()
	if got.stats != want.stats {
		t.Fatalf("op %d: %s stats = %+v, want %+v", op, name, got.stats, want.stats)
	}
	var gbuf, wbuf [16]resident
	var stamps [16]uint64
	for s := range want.sets {
		if g, w := got.set(s, gbuf[:], stamps[:]), want.set(s, wbuf[:], stamps[:]); !slices.Equal(g, w) {
			t.Fatalf("op %d: %s set %d = %+v, want %+v", op, name, s, g, w)
		}
	}
}

// maxOps bounds a fuzz input, so one input cannot stall the fuzzer.
const maxOps = 1024

// FuzzCacheVsNaive drives two cores' hierarchies over one shared LLC,
// and the reference model beside them, through the same accesses, and
// compares every observable after each access. Each access is two
// bytes. The first picks the core (bit 0), load or store (bit 1), one
// of four instruction pointers (bits 2-3), and the address pattern
// (bits 4-5): the IP's own constant stride, so the prefetcher trains
// and fires; a line that maps to set 0 of every level; or the second
// byte as the line itself.
func FuzzCacheVsNaive(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 1, 0, 1, 1, 2, 3, 2})
	f.Add([]byte{16, 0, 16, 0, 16, 0, 16, 0, 16, 0, 16, 0, 0, 3, 2, 3})
	f.Add([]byte{32, 1, 32, 2, 32, 3, 34, 4, 32, 5, 32, 1, 33, 6, 32, 2})
	f.Add([]byte{
		20, 0, 20, 0, 20, 0, 20, 0, 24, 0, 24, 0, 24, 0, 24, 0,
		21, 0, 21, 0, 21, 0, 21, 0, 0, 9, 2, 10, 0, 11, 3, 9,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), maxOps)]
		l1, l2, llcCfg := Config{SizeBytes: 1 << 10, Ways: 2}, Config{SizeBytes: 4 << 10, Ways: 4}, Config{SizeBytes: 16 << 10, Ways: 4}
		llc, err := NewSharedLLC(llcCfg)
		if err != nil {
			t.Fatal(err)
		}
		wantLLC := newNaiveLevel(llcCfg)
		var got [2]*Hierarchy
		var want [2]*naiveHierarchy
		for c := range got {
			if got[c], err = NewHierarchy(l1, l2, llc, NewPrefetcher(16, 2)); err != nil {
				t.Fatal(err)
			}
			want[c] = &naiveHierarchy{l1: newNaiveLevel(l1), l2: newNaiveLevel(l2), llc: wantLLC, pf: NewPrefetcher(16, 2)}
		}
		var cursor [2][4]uint64
		for op := 0; op+2 <= len(ops); op += 2 {
			b := ops[op]
			c, isStore, ipIdx := int(b&1), b&2 != 0, uint64(b>>2&3)
			var line uint64
			switch b >> 4 & 3 {
			case 1:
				cursor[c][ipIdx] += ipIdx + 1
				line = (ipIdx+1)<<12 + cursor[c][ipIdx]
			case 2:
				line = uint64(ops[op+1]) << 8
			default:
				line = uint64(ops[op+1])
			}
			paddr, ip := line<<LineShift|uint64(ops[op+1]&(LineSize-1)), 0x400000+ipIdx*4
			if g, w := got[c].Access(paddr, ip, isStore), want[c].Access(paddr, ip, isStore); g != w {
				t.Fatalf("op %d: core %d Access(%#x) = %+v, want %+v", op, c, paddr, g, w)
			}
			for i := range got {
				if got[i].pf.Issued != want[i].pf.Issued {
					t.Fatalf("op %d: core %d prefetches issued = %d, want %d", op, i, got[i].pf.Issued, want[i].pf.Issued)
				}
				compareLevels(t, op, "L1", got[i].l1, want[i].l1)
				compareLevels(t, op, "L2", got[i].l2, want[i].l2)
			}
			compareLevels(t, op, "LLC", llc.lvl, wantLLC)
		}
	})
}
