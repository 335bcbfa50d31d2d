package tlb

import (
	"math"
	"slices"
	"testing"

	"tieredmem/internal/mem"
)

// naiveEntry, naiveLevel and naiveTLB are the reference model: the
// straightforward [][]struct true-LRU TLB, where each way carries its
// own valid bit and LRU stamp and a full flush clears every way. The
// flat, generation-tagged TLB must match it operation for operation.
type naiveEntry struct {
	Entry
	valid bool
	lru   uint64
}

type naiveLevel struct {
	sets  [][]naiveEntry
	mask  uint64
	stamp uint64
	stats Stats
}

func newNaiveLevel(c Config) *naiveLevel {
	nsets := c.Entries / c.Ways
	l := &naiveLevel{sets: make([][]naiveEntry, nsets), mask: uint64(nsets - 1)}
	for i := range l.sets {
		l.sets[i] = make([]naiveEntry, c.Ways)
	}
	return l
}

func (l *naiveLevel) lookup(vpn mem.VPN) *naiveEntry {
	set := l.sets[uint64(vpn)&l.mask]
	for i := range set {
		if set[i].valid && set[i].VPN == vpn {
			l.stamp++
			set[i].lru = l.stamp
			l.stats.Hits++
			return &set[i]
		}
	}
	l.stats.Misses++
	return nil
}

func (l *naiveLevel) insert(e Entry) {
	set := l.sets[uint64(e.VPN)&l.mask]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	l.stamp++
	set[victim] = naiveEntry{Entry: e, valid: true, lru: l.stamp}
}

func (l *naiveLevel) flushPage(vpn mem.VPN) bool {
	set := l.sets[uint64(vpn)&l.mask]
	for i := range set {
		if set[i].valid && set[i].VPN == vpn {
			set[i].valid = false
			return true
		}
	}
	return false
}

func (l *naiveLevel) flushAll() {
	for _, set := range l.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}

type naiveTLB struct {
	l1, l2       *naiveLevel
	flushes      uint64
	flushedPages uint64
}

func (t *naiveTLB) Lookup(vpn mem.VPN) (*Entry, HitLevel) {
	if e := t.l1.lookup(vpn); e != nil {
		return &e.Entry, HitL1
	}
	if e := t.l2.lookup(vpn); e != nil {
		t.l1.insert(e.Entry)
		l1e := t.l1.lookup(vpn)
		t.l1.stats.Hits--
		return &l1e.Entry, HitL2
	}
	return nil, HitNone
}

func (t *naiveTLB) Insert(e Entry) {
	t.l2.insert(e)
	t.l1.insert(e)
}

func (t *naiveTLB) MarkDirty(vpn mem.VPN) {
	if e := t.l1.lookup(vpn); e != nil {
		e.Dirty = true
		t.l1.stats.Hits--
	}
	if e := t.l2.lookup(vpn); e != nil {
		e.Dirty = true
		t.l2.stats.Hits--
	}
}

func (t *naiveTLB) FlushPage(vpn mem.VPN) {
	in1 := t.l1.flushPage(vpn)
	in2 := t.l2.flushPage(vpn)
	if in1 || in2 {
		t.flushedPages++
	}
}

func (t *naiveTLB) FlushAll() {
	t.l1.flushAll()
	t.l2.flushAll()
	t.flushes++
}

// way is one way's observable state: its entry when valid, and its
// recency rank among the set's valid ways (0 = least recent).
type way struct {
	valid bool
	entry Entry
	rank  int
}

// ranks turns per-way stamps into recency ranks among valid ways, so
// two models that count stamps differently still compare equal when
// they order the ways the same.
func ranks(ws []way, stamps []uint64) {
	for i := range ws {
		for j := range ws {
			if ws[i].valid && ws[j].valid && stamps[j] < stamps[i] {
				ws[i].rank++
			}
		}
	}
}

// set appends set s's ways to buf[:0].
func (l *level) set(s int, buf []way, stamps []uint64) []way {
	ws, stamps := buf[:0], stamps[:0]
	for slot := s * l.ways; slot < (s+1)*l.ways; slot++ {
		w := way{valid: l.gens[slot] == l.gen}
		if w.valid {
			w.entry = l.entries[slot]
		}
		ws, stamps = append(ws, w), append(stamps, l.lru[slot])
	}
	ranks(ws, stamps)
	return ws
}

func (l *naiveLevel) set(s int, buf []way, stamps []uint64) []way {
	ws, stamps := buf[:0], stamps[:0]
	for _, e := range l.sets[s] {
		w := way{valid: e.valid}
		if w.valid {
			w.entry = e.Entry
		}
		ws, stamps = append(ws, w), append(stamps, e.lru)
	}
	ranks(ws, stamps)
	return ws
}

func compareLevels(t *testing.T, op int, name string, got *level, want *naiveLevel) {
	t.Helper()
	if got.stats != want.stats {
		t.Fatalf("op %d: %s stats = %+v, want %+v", op, name, got.stats, want.stats)
	}
	var gbuf, wbuf [8]way
	var stamps [8]uint64
	for s := range want.sets {
		if g, w := got.set(s, gbuf[:], stamps[:]), want.set(s, wbuf[:], stamps[:]); !slices.Equal(g, w) {
			t.Fatalf("op %d: %s set %d = %+v, want %+v", op, name, s, g, w)
		}
	}
}

// maxOps bounds a fuzz input, so one input cannot stall the fuzzer.
const maxOps = 1536

// FuzzTLBVsNaive drives the TLB and the reference model through the
// same operation sequence and compares every observable after each
// operation. Each operation is three bytes: kind, VPN, payload bits.
// VPNs stay below 64 so the 4-set L1 and 8-set L2 conflict often.
func FuzzTLBVsNaive(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 4, 1, 1, 8, 2, 0, 0, 0, 0, 4, 0})
	f.Add([]byte{1, 3, 1, 2, 3, 0, 0, 3, 0, 4, 0, 0, 0, 3, 0, 3, 3, 0})
	f.Add([]byte{
		1, 0, 0, 1, 8, 0, 1, 16, 0, 1, 24, 0, 1, 32, 0, 0, 0, 0,
		2, 0, 0, 1, 40, 0, 0, 0, 0, 5, 8, 0, 0, 8, 0, 3, 8, 0,
	})
	f.Add([]byte{
		1, 1, 3, 1, 5, 2, 1, 9, 1, 1, 13, 0, 0, 1, 0, 5, 1, 0,
		2, 5, 0, 0, 5, 0, 4, 0, 0, 0, 1, 0, 0, 9, 0, 1, 1, 1,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), maxOps)]
		l1, l2 := Config{Entries: 8, Ways: 2}, Config{Entries: 32, Ways: 4}
		got := MustNew(l1, l2)
		want := &naiveTLB{l1: newNaiveLevel(l1), l2: newNaiveLevel(l2)}
		for op := 0; op+3 <= len(ops); op += 3 {
			vpn := mem.VPN(ops[op+1] % 64)
			switch ops[op] % 6 {
			case 0, 5: // Lookup; kind 5 then stores through a clean hit
				ge, gl := got.Lookup(vpn)
				we, wl := want.Lookup(vpn)
				if gl != wl || (ge == nil) != (we == nil) || (ge != nil && *ge != *we) {
					t.Fatalf("op %d: Lookup(%d) = (%+v, %v), want (%+v, %v)", op, vpn, ge, gl, we, wl)
				}
				if ops[op]%6 == 5 && ge != nil && !ge.Dirty {
					ge.Dirty, we.Dirty = true, true
				}
			case 1:
				e := Entry{
					VPN:      vpn,
					PFN:      mem.PFN(ops[op+1]) + 1000,
					Writable: ops[op+2]&1 != 0,
					Dirty:    ops[op+2]&2 != 0,
				}
				got.Insert(e)
				want.Insert(e)
			case 2:
				got.MarkDirty(vpn)
				want.MarkDirty(vpn)
			case 3:
				got.FlushPage(vpn)
				want.FlushPage(vpn)
			case 4:
				got.FlushAll()
				want.FlushAll()
			}
			if got.Flushes != want.flushes || got.FlushedPages != want.flushedPages {
				t.Fatalf("op %d: Flushes/FlushedPages = %d/%d, want %d/%d",
					op, got.Flushes, got.FlushedPages, want.flushes, want.flushedPages)
			}
			compareLevels(t, op, "L1", got.l1, want.l1)
			compareLevels(t, op, "L2", got.l2, want.l2)
		}
	})
}

// TestGenerationWrap starts a level's generation counter just below
// the wrap: no translation filled before the wrap, including one
// filled a full counter cycle earlier under generation 1, may hit
// after it.
func TestGenerationWrap(t *testing.T) {
	tl := small()
	tl.Insert(Entry{VPN: 1, PFN: 10}) // generation 1
	for _, l := range []*level{tl.l1, tl.l2} {
		l.gen = math.MaxUint32 - 1
	}
	tl.Insert(Entry{VPN: 2, PFN: 20})
	tl.FlushAll()
	tl.Insert(Entry{VPN: 3, PFN: 30}) // generation MaxUint32
	tl.FlushAll()                     // wraps back to generation 1
	for _, l := range []*level{tl.l1, tl.l2} {
		if l.gen != 1 {
			t.Fatalf("generation after wrap = %d, want 1", l.gen)
		}
	}
	for vpn := mem.VPN(1); vpn <= 3; vpn++ {
		if e, lvl := tl.Lookup(vpn); lvl != HitNone {
			t.Errorf("vpn %d filled before the wrap hit %v afterwards: %+v", vpn, lvl, e)
		}
	}
	tl.Insert(Entry{VPN: 4, PFN: 40})
	if e, lvl := tl.Lookup(4); lvl != HitL1 || e.PFN != 40 {
		t.Errorf("fill after the wrap = (%+v, %v), want an L1 hit", e, lvl)
	}
}

// TestMarkDirtyRefreshesL2Recency pins part of the modeled replacement
// order: MarkDirty after an L1 hit refreshes the L2 copy's recency, so
// that copy survives the next conflict in its L2 set and the set's
// least recently used other way is evicted instead.
func TestMarkDirtyRefreshesL2Recency(t *testing.T) {
	for _, markDirty := range []bool{false, true} {
		// One 8-way L1 set holds every VPN below; L2 set 0 holds four
		// ways: VPNs 0, 4, 8, 12, then 16.
		tl := MustNew(Config{Entries: 8, Ways: 8}, Config{Entries: 16, Ways: 4})
		for vpn := mem.VPN(0); vpn <= 12; vpn += 4 {
			tl.Insert(Entry{VPN: vpn, PFN: mem.PFN(vpn)})
		}
		if _, lvl := tl.Lookup(0); lvl != HitL1 {
			t.Fatalf("vpn 0 lookup = %v, want L1", lvl)
		}
		if markDirty {
			tl.MarkDirty(0)
		}
		tl.Insert(Entry{VPN: 16, PFN: 16})
		in0, in4 := tl.l2.find(0) >= 0, tl.l2.find(4) >= 0
		if markDirty && (!in0 || in4) {
			t.Errorf("after MarkDirty: L2 holds vpn 0 = %v, vpn 4 = %v; want the L2 copy of 0 refreshed and 4 evicted", in0, in4)
		}
		if !markDirty && (in0 || !in4) {
			t.Errorf("without MarkDirty: L2 holds vpn 0 = %v, vpn 4 = %v; want 0 evicted as least recent", in0, in4)
		}
	}
}
