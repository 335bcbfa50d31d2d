// Package invariant asserts the cross-layer conservation laws that
// must survive any epoch, faulted or not: physical frames are neither
// lost nor duplicated, every page-table mapping points at exactly one
// allocated frame whose descriptor points back, per-tier accounting
// conserves capacity, and the mover's failure counters partition its
// aggregate. The chaos suite runs a Checker after every epoch under
// fault injection — a fault plane is allowed to make migrations fail,
// never to corrupt placement state.
//
// The checker only reads; it never mutates simulator state, so a
// checked run is byte-identical to an unchecked one.
package invariant

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
	"tieredmem/internal/policy"
)

// maxViolations bounds one Check's report; past this the epoch is
// thoroughly broken and more lines would not help.
const maxViolations = 8

// bucket is one group of violations in report order: a Check gathers
// each group separately (the fused frame sweep finds several at once)
// and joins them in this order, so the report reads rule by rule.
type bucket int

const (
	bTierConservation bucket = iota
	bTierMismatch
	bMapping // dangling-mapping, duplicate-frame, descriptor-mismatch in walk order
	bLeaked
	bShadowFrame
	bShadowedPrimary
	bShadowCensus
	bMover
	numBuckets
)

// Checker verifies epoch invariants. It keeps per-PFN scratch between
// calls (epoch-stamped, so it is cleared only when the stamp wraps),
// making the per-epoch cost one walk of the mapped pages plus one
// sweep of the frame array; every other buffer is recycled too, so a
// passing Check allocates nothing in steady state. Not safe for
// concurrent use; parallel cells each own one.
type Checker struct {
	stamp uint32
	owner []ownerMark

	pids       []int
	tierRanges [][2]mem.PFN
	shadowSeen []int
	found      [numBuckets][]Violation
}

// ownerMark records which mapping claimed a frame during the current
// Check pass; stale stamps mean "unclaimed this pass".
type ownerMark struct {
	stamp uint32
	pid   int
	vpn   mem.VPN
}

// New builds a Checker.
func New() *Checker { return &Checker{} }

// Violation is one broken invariant; Error joins all of them, so a
// single failed epoch reports every law it broke at once.
type Violation struct {
	// Rule names the invariant ("tier-conservation", "tier-mismatch",
	// "duplicate-frame", "dangling-mapping", "descriptor-mismatch",
	// "leaked-frame", "shadow-conservation", "mover-accounting").
	Rule string
	// Detail locates the breakage.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Error wraps the violations of one failed Check.
type Error struct {
	Violations []Violation
}

func (e *Error) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.String()
	}
	return "invariant: " + strings.Join(parts, "; ")
}

// add records one violation in bucket b and reports whether the report
// still has room after it. A violation that the join would truncate —
// the buckets before b plus b's own already fill maxViolations — is
// dropped unformatted. Buckets are filled out of report order (the
// sweep runs after the mapping walk), so the count of earlier buckets
// is a lower bound at the time; an entry recorded here may still be
// truncated at the join, never one dropped here kept.
func (c *Checker) add(b bucket, rule, format string, args ...any) bool {
	n := 0
	for i := bucket(0); i <= b; i++ {
		n += len(c.found[i])
	}
	if n >= maxViolations {
		return false
	}
	c.found[b] = append(c.found[b], Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	return n+1 < maxViolations
}

// nextStamp advances the ownership stamp. On wrap every mark is
// cleared and stamping restarts at 1: stamp 0 is what a never-claimed
// mark holds, so reusing it would read every such frame as claimed
// this pass.
func (c *Checker) nextStamp() uint32 {
	if c.stamp == math.MaxUint32 {
		clear(c.owner)
		c.stamp = 0
	}
	c.stamp++
	return c.stamp
}

// Check asserts every epoch invariant against the machine's physical
// memory, the page tables, and (when non-nil) the mover's accounting.
// It returns nil when all hold, or an *Error listing up to
// maxViolations breakages. Tables are visited in ascending-PID order
// and frames in ascending-PFN order, so the report for a given broken
// state is deterministic.
func (c *Checker) Check(phys *mem.PhysMem, tables map[int]*pagetable.Table, mv *policy.Mover) error {
	for b := range c.found {
		c.found[b] = c.found[b][:0]
	}
	total := phys.TotalFrames()
	if len(c.owner) < total {
		c.owner = make([]ownerMark, total)
		c.stamp = 0
	}
	stamp := c.nextStamp()
	nt := phys.Tiers()

	// 1. Tier conservation: used + free + shadow == capacity, per tier.
	// Shadow frames are the transactional mover's third allocator
	// state — not free, not mapped — and must still be conserved.
	totalUsed := 0
	c.tierRanges = c.tierRanges[:0]
	for t := 0; t < nt; t++ {
		id := mem.TierID(t)
		used, free, shadow := phys.UsedFrames(id), phys.FreeFrames(id), phys.ShadowFrames(id)
		cap := phys.TierSpecOf(id).Frames
		totalUsed += used
		if used+free+shadow != cap {
			c.add(bTierConservation, "tier-conservation", "tier %d (%s): used %d + free %d + shadow %d != capacity %d",
				t, phys.TierSpecOf(id).Name, used, free, shadow, cap)
		}
		lo, hi := phys.TierRange(id)
		c.tierRanges = append(c.tierRanges, [2]mem.PFN{lo, hi})
	}

	// 2. Mapping -> frame: every present leaf resolves to allocated
	// frames whose descriptors point back, and no frame is mapped
	// twice (by one table or across tables). The walk stamps each
	// claimed frame for the sweep below, and stops once its findings
	// could no longer reach the report.
	pids := c.pids[:0]
	for pid := range tables {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	c.pids = pids
	mapped := 0
	for _, pid := range pids {
		tables[pid].WalkRange(func(vpn mem.VPN, pte *pagetable.PTE, huge bool) bool {
			span := 1
			if huge {
				span = mem.HugePages
			}
			base := pte.PFN()
			for i := 0; i < span; i++ {
				pfn, pv := base+mem.PFN(i), vpn+mem.VPN(i)
				if int(pfn) >= total {
					return c.add(bMapping, "dangling-mapping", "pid %d vpn %#x -> PFN %d beyond physical memory (%d frames)",
						pid, uint64(pv), pfn, total)
				}
				mapped++
				own := &c.owner[pfn]
				if own.stamp == stamp {
					if !c.add(bMapping, "duplicate-frame", "PFN %d mapped by pid %d vpn %#x and pid %d vpn %#x",
						pfn, own.pid, uint64(own.vpn), pid, uint64(pv)) {
						return false
					}
					continue
				}
				*own = ownerMark{stamp: stamp, pid: pid, vpn: pv}
				pd := phys.Page(pfn)
				if !pd.Allocated() {
					if !c.add(bMapping, "dangling-mapping", "pid %d vpn %#x -> PFN %d which is free", pid, uint64(pv), pfn) {
						return false
					}
					continue
				}
				if pd.PID != pid || pd.VPage != pv || pd.Frame != pfn {
					if !c.add(bMapping, "descriptor-mismatch", "PFN %d descriptor says pid=%d vpn=%#x frame=%d, mapping says pid=%d vpn=%#x",
						pfn, pd.PID, uint64(pd.VPage), pd.Frame, pid, uint64(pv)) {
						return false
					}
				}
			}
			return true
		})
	}

	// 3. One sweep of the whole raw frame array — not the allocator's
	// watermark spans, so a drifted counter cannot hide a flagged
	// frame — checks every per-frame law at once:
	//   - tier identity: an allocated descriptor's Tier agrees with
	//     its frame's position in the chain's PFN carving (a mover
	//     bug that moved counters without the frame breaks this
	//     before it breaks per-tier totals);
	//   - frame -> mapping: an allocated frame no mapping claimed this
	//     pass leaked. Counting both directions plus the duplicate
	//     check above makes mapping <-> allocated frame a bijection,
	//     so the per-frame test runs only when the counts disagree;
	//   - shadow conservation: every shadow's link names an allocated
	//     primary in a faster tier that links back and agrees on page
	//     identity, every shadowed primary's link names a shadow, and
	//     the flags per tier match the shadow counters.
	leaks := mapped != totalUsed
	if cap(c.shadowSeen) < nt {
		c.shadowSeen = make([]int, nt)
	}
	c.shadowSeen = c.shadowSeen[:nt]
	clear(c.shadowSeen)
	pds := phys.Descriptors()
	for i := range pds {
		pd := &pds[i]
		if pd.Flags&(mem.FlagAllocated|mem.FlagShadow) == 0 {
			continue
		}
		if pd.Allocated() {
			c.sweepAllocated(pds, pd, leaks, stamp)
		}
		if pd.Flags&mem.FlagShadow != 0 {
			c.sweepShadow(pds, mem.PFN(i), stamp)
		}
	}
	for t := 0; t < nt; t++ {
		if got := phys.ShadowFrames(mem.TierID(t)); got != c.shadowSeen[t] {
			c.add(bShadowCensus, "shadow-conservation", "tier %d shadow counter says %d frames, flags say %d",
				t, got, c.shadowSeen[t])
		}
	}

	// 4. Mover accounting: the per-reason counters partition the
	// aggregate, transaction outcomes partition transaction starts,
	// retry outcomes never exceed attempts, and the queue respects its
	// bound.
	if mv != nil {
		if sum := mv.FailedCapacity + mv.FailedPinned + mv.FailedVanished + mv.FailedSplit + mv.AbortedDirty; sum != mv.Failed {
			c.add(bMover, "mover-accounting", "Failed %d != capacity %d + pinned %d + vanished %d + split %d + aborted %d",
				mv.Failed, mv.FailedCapacity, mv.FailedPinned, mv.FailedVanished, mv.FailedSplit, mv.AbortedDirty)
		}
		if sum := mv.TxCommitted + mv.AbortedDirty + mv.TxRemapFailed; sum != mv.TxStarted {
			c.add(bMover, "mover-accounting", "TxStarted %d != committed %d + aborted-dirty %d + remap-failed %d",
				mv.TxStarted, mv.TxCommitted, mv.AbortedDirty, mv.TxRemapFailed)
		}
		if mv.RetrySucceeded > mv.Retried {
			c.add(bMover, "mover-accounting", "RetrySucceeded %d > Retried %d", mv.RetrySucceeded, mv.Retried)
		}
		if mv.RetryQueueLen() > mv.RetryQueueCap {
			c.add(bMover, "mover-accounting", "retry queue length %d exceeds cap %d", mv.RetryQueueLen(), mv.RetryQueueCap)
		}
	}
	return c.report()
}

// sweepAllocated checks one allocated frame's tier identity, that some
// mapping claimed it (when leaks is set), and its shadow link.
func (c *Checker) sweepAllocated(pds []mem.PageDescriptor, pd *mem.PageDescriptor, leaks bool, stamp uint32) {
	if int(pd.Tier) >= len(c.tierRanges) {
		c.add(bTierMismatch, "tier-mismatch", "PFN %d (pid %d vpn %#x) claims tier %d of a %d-tier chain",
			pd.Frame, pd.PID, uint64(pd.VPage), pd.Tier, len(c.tierRanges))
	} else if r := c.tierRanges[pd.Tier]; pd.Frame < r[0] || pd.Frame >= r[1] {
		c.add(bTierMismatch, "tier-mismatch", "PFN %d (pid %d vpn %#x) claims tier %d which spans [%d, %d)",
			pd.Frame, pd.PID, uint64(pd.VPage), pd.Tier, r[0], r[1])
	}
	if leaks && (int(pd.Frame) >= len(c.owner) || c.owner[pd.Frame].stamp != stamp) {
		c.add(bLeaked, "leaked-frame", "PFN %d allocated (pid %d vpn %#x, tier %d) but mapped by no page table",
			pd.Frame, pd.PID, uint64(pd.VPage), pd.Tier)
	}
	if pd.Flags&mem.FlagShadowed != 0 && (int(pd.ShadowLink) >= len(pds) || pds[pd.ShadowLink].Flags&mem.FlagShadow == 0) {
		c.add(bShadowedPrimary, "shadow-conservation", "shadowed primary PFN %d links to PFN %d which holds no shadow",
			pd.Frame, pd.ShadowLink)
	}
}

// sweepShadow counts the shadow frame at pfn toward its tier's census
// and checks it backs no mapping and pairs with its primary.
func (c *Checker) sweepShadow(pds []mem.PageDescriptor, pfn mem.PFN, stamp uint32) {
	spd := &pds[pfn]
	if int(spd.Tier) < len(c.shadowSeen) {
		c.shadowSeen[spd.Tier]++
	}
	if own := &c.owner[pfn]; own.stamp == stamp {
		c.add(bShadowFrame, "shadow-conservation", "shadow PFN %d is mapped by pid %d vpn %#x",
			pfn, own.pid, uint64(own.vpn))
		return
	}
	if int(spd.ShadowLink) >= len(pds) {
		c.add(bShadowFrame, "shadow-conservation", "shadow PFN %d links to PFN %d which is not a shadowed primary",
			pfn, spd.ShadowLink)
		return
	}
	primary := &pds[spd.ShadowLink]
	switch {
	case !primary.Allocated() || primary.Flags&mem.FlagShadowed == 0:
		c.add(bShadowFrame, "shadow-conservation", "shadow PFN %d links to PFN %d which is not a shadowed primary",
			pfn, spd.ShadowLink)
	case primary.ShadowLink != pfn:
		c.add(bShadowFrame, "shadow-conservation", "shadow PFN %d links to PFN %d whose shadow link is PFN %d",
			pfn, spd.ShadowLink, primary.ShadowLink)
	case primary.PID != spd.PID || primary.VPage != spd.VPage:
		c.add(bShadowFrame, "shadow-conservation", "shadow PFN %d (pid %d vpn %#x) disagrees with primary PFN %d (pid %d vpn %#x)",
			pfn, spd.PID, uint64(spd.VPage), primary.Frame, primary.PID, uint64(primary.VPage))
	case primary.Tier >= spd.Tier:
		c.add(bShadowFrame, "shadow-conservation", "shadow PFN %d in tier %d is not slower than its primary PFN %d in tier %d",
			pfn, spd.Tier, primary.Frame, primary.Tier)
	}
}

// report joins the buckets in report order, truncated to
// maxViolations, into a fresh *Error (the buckets are reused by the
// next Check), or returns nil when every invariant held.
func (c *Checker) report() error {
	n := 0
	for b := range c.found {
		n += len(c.found[b])
	}
	if n == 0 {
		return nil
	}
	e := &Error{Violations: make([]Violation, 0, min(n, maxViolations))}
	for b := range c.found {
		room := maxViolations - len(e.Violations)
		e.Violations = append(e.Violations, c.found[b][:min(room, len(c.found[b]))]...)
	}
	return e
}
