package policy

import (
	"fmt"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/order"
)

// agreementStats builds a tie-heavy harvest with every page in the
// slow tier, so the fast-tier tie preference is neutral and policies
// that track residency (History via statLess) and policies that do not
// (Decay) are comparable.
func agreementStats(n int) core.EpochStats {
	stats := core.EpochStats{Pages: make([]core.PageStat, 0, n)}
	for i := 0; i < n; i++ {
		stats.Pages = append(stats.Pages, core.PageStat{
			Key:   core.PageKey{PID: 1 + i%3, VPN: mem.VPN(i / 3)},
			Tier:  mem.SlowTier,
			Abit:  uint32(i % 4), // heavy tie groups, some zero-rank
			Trace: uint32(i % 6),
		})
	}
	return stats
}

func selectionKeys(sel Selection) map[core.PageKey]bool {
	out := make(map[core.PageKey]bool, len(sel))
	for k := range sel {
		out[k] = true
	}
	return out
}

// TestSelectorsAgreeOnSharedComparator is the cross-package drift
// guard the shared comparator exists for: with residency and writes
// neutralized and fresh per-policy state, History, Oracle, Decay
// (alpha=1 degrades to History; any alpha's first epoch scores
// alpha·rank, monotone in rank), and WriteBiased (zero writes: score
// equals rank)
// must all pick exactly the keys of the full RankedPages prefix.
func TestSelectorsAgreeOnSharedComparator(t *testing.T) {
	stats := agreementStats(60)
	for _, method := range []core.Method{core.MethodAbit, core.MethodTrace, core.MethodCombined} {
		ranked := core.RankedPages(stats, method)
		for _, capacity := range []int{1, 3, len(ranked) / 2, len(ranked), len(ranked) + 10} {
			want := make(map[core.PageKey]bool, capacity)
			for i, ps := range ranked {
				if i >= capacity {
					break
				}
				want[ps.Key] = true
			}
			policies := []Policy{
				History{},
				Oracle{},
				NewDecay(1.0),
				NewDecay(0.5),
				WriteBiased{Bias: 2},
			}
			for _, p := range policies {
				// Oracle reads next; everything else reads prev.
				sel := p.Select(stats, stats, method, capacity)
				got := selectionKeys(sel)
				if len(got) != len(want) {
					t.Errorf("%s method=%v capacity=%d: selected %d pages, want %d",
						p.Name(), method, capacity, len(got), len(want))
					continue
				}
				for _, k := range order.SortedKeysFunc(want, core.PageKeyLess) {
					if !got[k] {
						t.Errorf("%s method=%v capacity=%d: page %v missing from selection",
							p.Name(), method, capacity, k)
					}
				}
			}
		}
	}
}

// TestBoundedSelectionSweepsCapacity sweeps capacity over a tie-heavy
// harvest and checks the bounded takeTop prefix is always exactly the
// full-sort prefix — the policy-side view of the core differential
// test.
func TestBoundedSelectionSweepsCapacity(t *testing.T) {
	stats := agreementStats(45)
	method := core.MethodCombined
	ranked := core.RankedPages(stats, method)
	for capacity := 0; capacity <= len(ranked)+2; capacity++ {
		sel := takeTop(stats, method, capacity)
		wantLen := capacity
		if wantLen > len(ranked) {
			wantLen = len(ranked)
		}
		if len(sel) != wantLen {
			t.Fatalf("capacity %d: |selection| = %d, want %d", capacity, len(sel), wantLen)
		}
		for i := 0; i < wantLen; i++ {
			if _, ok := sel[ranked[i].Key]; !ok {
				t.Fatalf("capacity %d: ranked[%d]=%v not selected", capacity, i, ranked[i].Key)
			}
		}
	}
}

// TestSelectionDeterminism re-runs a stateful policy from fresh state
// and requires byte-identical selections — the same-seed-same-ranks
// contract at the policy layer.
func TestSelectionDeterminism(t *testing.T) {
	stats := agreementStats(60)
	run := func() string {
		p := NewDecay(0.5)
		var out string
		for epoch := 0; epoch < 3; epoch++ {
			sel := p.Select(stats, core.EpochStats{}, core.MethodCombined, 10)
			for _, ps := range core.RankedPages(stats, core.MethodCombined) {
				if _, ok := sel[ps.Key]; ok {
					out += fmt.Sprintf("%d:%d;", ps.Key.PID, uint64(ps.Key.VPN))
				}
			}
			out += "|"
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Errorf("stateful selection not reproducible:\n%s\n%s", a, b)
	}
}

// TestRanksIntoReuseMatchesRanksOf recycles one Ranks across
// differing tie-heavy harvests (growing, shrinking, empty, with a
// duplicated key) and every method: after each refill, Get must agree
// with a fresh RanksOf on every page of the current harvest and of all
// earlier ones, so no stale rank survives the recycle.
func TestRanksIntoReuseMatchesRanksOf(t *testing.T) {
	dup := agreementStats(9)
	dup.Pages = append(dup.Pages, dup.Pages[4])
	dup.Pages[len(dup.Pages)-1].Abit += 3 // last one wins
	harvests := []core.EpochStats{agreementStats(60), agreementStats(7), {}, agreementStats(120), dup, agreementStats(45)}
	var seen []core.PageKey
	for _, ep := range harvests {
		for _, ps := range ep.Pages {
			seen = append(seen, ps.Key)
		}
	}
	seen = append(seen, core.PageKey{PID: 99, VPN: 1}) // never harvested
	var reused core.Ranks
	for _, method := range []core.Method{core.MethodAbit, core.MethodTrace, core.MethodCombined} {
		for i, ep := range harvests {
			core.RanksInto(&reused, ep, method)
			fresh := core.RanksOf(ep, method)
			if reused.Len() != fresh.Len() {
				t.Errorf("method=%v harvest %d: Len %d, fresh %d", method, i, reused.Len(), fresh.Len())
			}
			for _, k := range seen {
				if got, want := reused.Get(k), fresh.Get(k); got != want {
					t.Errorf("method=%v harvest %d: Get(%v) = %d, fresh RanksOf says %d", method, i, k, got, want)
				}
			}
		}
	}
}
