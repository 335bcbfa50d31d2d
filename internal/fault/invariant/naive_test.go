package invariant

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
	"tieredmem/internal/policy"
)

// naiveCheck is the checker as it stood before the fused frame sweep:
// one pass per law (tier identity over the allocator's watermark
// spans, the mapping walk, a leaked-frame pass, a raw-array shadow
// pass, a shadowed-primary pass), each appending straight into one
// report. FuzzCheckerVsNaive pins Checker.Check to it. It differs
// only where an allocated-flagged frame lies outside every watermark
// span, which no allocator operation produces
// (TestSweepSeesFramesPastWatermark).
func naiveCheck(phys *mem.PhysMem, tables map[int]*pagetable.Table, mv *policy.Mover) error {
	var e Error
	add := func(rule, format string, args ...interface{}) bool {
		if len(e.Violations) < maxViolations {
			e.Violations = append(e.Violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
		}
		return len(e.Violations) < maxViolations
	}

	total := phys.TotalFrames()
	c := struct{ owner []ownerMark }{make([]ownerMark, total)}
	const stamp = 1

	// 1. Tier conservation: used + free + shadow == capacity, per tier.
	// Shadow frames are the transactional mover's third allocator
	// state — not free, not mapped — and must still be conserved.
	totalUsed := 0
	for t := 0; t < phys.Tiers(); t++ {
		id := mem.TierID(t)
		used, free, shadow := phys.UsedFrames(id), phys.FreeFrames(id), phys.ShadowFrames(id)
		cap := phys.TierSpecOf(id).Frames
		totalUsed += used
		if used+free+shadow != cap {
			add("tier-conservation", "tier %d (%s): used %d + free %d + shadow %d != capacity %d",
				t, phys.TierSpecOf(id).Name, used, free, shadow, cap)
		}
	}

	// 2. Tier identity: every allocated descriptor's Tier field agrees
	// with its frame's position in the chain's PFN carving. A mover
	// bug that moved counters without moving the frame (or vice versa)
	// breaks this before it breaks per-tier totals — each tier's
	// used+free can balance while two descriptors sit in each other's
	// tiers.
	phys.ForEachAllocated(func(pd *mem.PageDescriptor) {
		lo, hi := phys.TierRange(pd.Tier)
		if pd.Frame < lo || pd.Frame >= hi {
			add("tier-mismatch", "PFN %d (pid %d vpn %#x) claims tier %d which spans [%d, %d)",
				pd.Frame, pd.PID, uint64(pd.VPage), pd.Tier, lo, hi)
		}
	})

	// 3. Mapping -> frame: every present leaf resolves to allocated
	// frames whose descriptors point back, and no frame is mapped
	// twice (by one table or across tables).
	pids := make([]int, 0, len(tables))
	for pid := range tables {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	mapped := 0
	for _, pid := range pids {
		table := tables[pid]
		table.WalkRange(func(vpn mem.VPN, pte *pagetable.PTE, huge bool) bool {
			span := 1
			if huge {
				span = mem.HugePages
			}
			base := pte.PFN()
			for i := 0; i < span; i++ {
				pfn, pv := base+mem.PFN(i), vpn+mem.VPN(i)
				if int(pfn) >= total {
					return add("dangling-mapping", "pid %d vpn %#x -> PFN %d beyond physical memory (%d frames)",
						pid, uint64(pv), pfn, total)
				}
				mapped++
				own := &c.owner[pfn]
				if own.stamp == stamp {
					if !add("duplicate-frame", "PFN %d mapped by pid %d vpn %#x and pid %d vpn %#x",
						pfn, own.pid, uint64(own.vpn), pid, uint64(pv)) {
						return false
					}
					continue
				}
				*own = ownerMark{stamp: stamp, pid: pid, vpn: pv}
				pd := phys.Page(pfn)
				if !pd.Allocated() {
					if !add("dangling-mapping", "pid %d vpn %#x -> PFN %d which is free", pid, uint64(pv), pfn) {
						return false
					}
					continue
				}
				if pd.PID != pid || pd.VPage != pv || pd.Frame != pfn {
					if !add("descriptor-mismatch", "PFN %d descriptor says pid=%d vpn=%#x frame=%d, mapping says pid=%d vpn=%#x",
						pfn, pd.PID, uint64(pd.VPage), pd.Frame, pid, uint64(pv)) {
						return false
					}
				}
			}
			return true
		})
	}

	// 4. Frame -> mapping: an allocated frame no mapping claimed this
	// pass leaked (lost page). Counting both directions plus the
	// duplicate check above makes mapping <-> allocated-frame a
	// bijection.
	if mapped != totalUsed && len(e.Violations) < maxViolations {
		phys.ForEachAllocated(func(pd *mem.PageDescriptor) {
			if c.owner[pd.Frame].stamp != stamp {
				add("leaked-frame", "PFN %d allocated (pid %d vpn %#x, tier %d) but mapped by no page table",
					pd.Frame, pd.PID, uint64(pd.VPage), pd.Tier)
			}
		})
	}

	// 5. Shadow conservation: shadow frames and shadowed primaries form
	// a bijection — every shadow's link names an allocated primary in a
	// faster tier that links back and agrees on page identity — and the
	// per-tier shadow counters match the flags. The pass walks the raw
	// frame array rather than the watermark spans so a counter drifting
	// to zero cannot hide flagged frames from the check.
	shadowSeen := make(map[mem.TierID]int)
	for pfn := mem.PFN(0); int(pfn) < total; pfn++ {
		spd := phys.Page(pfn)
		if spd.Flags&mem.FlagShadow == 0 {
			continue
		}
		shadowSeen[spd.Tier]++
		if c.owner[pfn].stamp == stamp {
			add("shadow-conservation", "shadow PFN %d is mapped by pid %d vpn %#x",
				pfn, c.owner[pfn].pid, uint64(c.owner[pfn].vpn))
			continue
		}
		primary := phys.Page(spd.ShadowLink)
		switch {
		case !primary.Allocated() || primary.Flags&mem.FlagShadowed == 0:
			add("shadow-conservation", "shadow PFN %d links to PFN %d which is not a shadowed primary",
				pfn, spd.ShadowLink)
		case primary.ShadowLink != pfn:
			add("shadow-conservation", "shadow PFN %d links to PFN %d whose shadow link is PFN %d",
				pfn, spd.ShadowLink, primary.ShadowLink)
		case primary.PID != spd.PID || primary.VPage != spd.VPage:
			add("shadow-conservation", "shadow PFN %d (pid %d vpn %#x) disagrees with primary PFN %d (pid %d vpn %#x)",
				pfn, spd.PID, uint64(spd.VPage), primary.Frame, primary.PID, uint64(primary.VPage))
		case primary.Tier >= spd.Tier:
			add("shadow-conservation", "shadow PFN %d in tier %d is not slower than its primary PFN %d in tier %d",
				pfn, spd.Tier, primary.Frame, primary.Tier)
		}
	}
	phys.ForEachAllocated(func(pd *mem.PageDescriptor) {
		if pd.Flags&mem.FlagShadowed != 0 && phys.Page(pd.ShadowLink).Flags&mem.FlagShadow == 0 {
			add("shadow-conservation", "shadowed primary PFN %d links to PFN %d which holds no shadow",
				pd.Frame, pd.ShadowLink)
		}
	})
	for t := 0; t < phys.Tiers(); t++ {
		id := mem.TierID(t)
		if got := phys.ShadowFrames(id); got != shadowSeen[id] {
			add("shadow-conservation", "tier %d shadow counter says %d frames, flags say %d",
				t, got, shadowSeen[id])
		}
	}

	// 6. Mover accounting: the per-reason counters partition the
	// aggregate, transaction outcomes partition transaction starts,
	// retry outcomes never exceed attempts, and the queue respects its
	// bound.
	if mv != nil {
		if sum := mv.FailedCapacity + mv.FailedPinned + mv.FailedVanished + mv.FailedSplit + mv.AbortedDirty; sum != mv.Failed {
			add("mover-accounting", "Failed %d != capacity %d + pinned %d + vanished %d + split %d + aborted %d",
				mv.Failed, mv.FailedCapacity, mv.FailedPinned, mv.FailedVanished, mv.FailedSplit, mv.AbortedDirty)
		}
		if sum := mv.TxCommitted + mv.AbortedDirty + mv.TxRemapFailed; sum != mv.TxStarted {
			add("mover-accounting", "TxStarted %d != committed %d + aborted-dirty %d + remap-failed %d",
				mv.TxStarted, mv.TxCommitted, mv.AbortedDirty, mv.TxRemapFailed)
		}
		if mv.RetrySucceeded > mv.Retried {
			add("mover-accounting", "RetrySucceeded %d > Retried %d", mv.RetrySucceeded, mv.Retried)
		}
		if mv.RetryQueueLen() > mv.RetryQueueCap {
			add("mover-accounting", "retry queue length %d exceeds cap %d", mv.RetryQueueLen(), mv.RetryQueueCap)
		}
	}

	if len(e.Violations) > 0 {
		return &e
	}
	return nil
}

// fuzzState is the tiny 3-tier machine FuzzCheckerVsNaive corrupts:
// twelve pages over two processes, two of them promoted
// transactionally so each leaves a shadow behind. touched lists every
// frame an allocation ever returned; corruptions only target those,
// which keeps every allocated-flagged frame inside the allocator's
// watermark spans, where the two checkers must agree.
type fuzzState struct {
	phys    *mem.PhysMem
	tables  map[int]*pagetable.Table
	mv      *policy.Mover
	touched []mem.PFN
}

func newFuzzState(t *testing.T) *fuzzState {
	t.Helper()
	chain, err := mem.ParseTierChain("dram:8/cxl:8/nvm:16")
	if err != nil {
		t.Fatal(err)
	}
	phys, err := mem.NewPhysMem(chain)
	if err != nil {
		t.Fatal(err)
	}
	s := &fuzzState{
		phys:   phys,
		tables: map[int]*pagetable.Table{1: pagetable.New(1), 2: pagetable.New(2)},
		mv:     &policy.Mover{RetryQueueCap: 8},
	}
	for i := 0; i < 12; i++ {
		pid := 1 + i%2
		pfn, err := phys.AllocIn(mem.TierID(i%3), pid, mem.VPN(i))
		if err != nil {
			t.Fatal(err)
		}
		s.tables[pid].Map(mem.VPN(i), pfn, true)
		s.touched = append(s.touched, pfn)
	}
	// Promote vpn 1 (cxl -> dram) and vpn 2 (nvm -> cxl) the way the
	// transactional mover does, keeping each vacated frame as a shadow.
	for _, vpn := range []mem.VPN{1, 2} {
		table := s.tables[1+int(vpn)%2]
		old, _ := table.Frame(vpn)
		pfn, err := phys.AllocIn(phys.Page(old).Tier-1, table.PID(), vpn)
		if err != nil {
			t.Fatal(err)
		}
		table.Remap(vpn, pfn)
		phys.MakeShadow(old, pfn)
		s.touched = append(s.touched, pfn)
	}
	return s
}

// corrupt applies one fuzz operation.
func (s *fuzzState) corrupt(op, a, b byte) {
	phys := s.phys
	pd := phys.Page(s.touched[int(a)%len(s.touched)])
	table := s.tables[1+int(b)%2]
	switch op % 12 {
	case 0:
		pd.Flags ^= mem.FlagShadow
	case 1:
		pd.Flags ^= mem.FlagShadowed
	case 2: // broken shadow link
		pd.ShadowLink = mem.PFN(int(b) % phys.TotalFrames())
	case 3: // duplicate mapping of a touched frame
		table.Map(mem.VPN(64+a%16), s.touched[int(b)%len(s.touched)], true)
	case 4: // dangling mapping: a free, taken or nonexistent frame
		table.Map(mem.VPN(96+a%16), mem.PFN(int(b)%(phys.TotalFrames()+4)), true)
	case 5: // frame freed out from under its mapping
		lo, hi := phys.TierRange(pd.Tier)
		if pd.Allocated() && pd.Flags&mem.FlagShadowed == 0 && pd.Frame >= lo && pd.Frame < hi {
			phys.Free(pd.Frame)
		}
	case 6: // descriptor names the wrong tier
		pd.Tier = mem.TierID((int(pd.Tier) + 1 + int(b)%2) % 3)
	case 7: // ... the wrong pid
		pd.PID += 1 + int(b)%3
	case 8: // ... the wrong vpn
		pd.VPage ^= mem.VPN(1 + b%4)
	case 9: // leaked frame: allocated, never mapped
		if t := mem.TierID(b % 3); phys.FreeFrames(t) > 0 {
			pfn, err := phys.AllocIn(t, 9, mem.VPN(a))
			if err == nil {
				s.touched = append(s.touched, pfn)
			}
		}
	case 10: // leaked frame: mapping removed, frame kept
		table.Unmap(mem.VPN(a % 12))
	case 11: // mover counters that no longer partition
		switch b % 3 {
		case 0:
			s.mv.Failed++
		case 1:
			s.mv.TxStarted++
		case 2:
			s.mv.RetrySucceeded++
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzCheckerVsNaive pins the fused single-sweep checker to the
// multi-pass one: after every corruption of a tiny 3-tier machine —
// flipped shadow flags, broken shadow links, duplicate and dangling
// mappings, descriptors naming the wrong tier, pid or vpn, leaked
// frames, shadow-counter drift, mover miscounts — both must return
// the same verdict with the same Error() text, including the
// truncation past maxViolations. One Checker is reused across steps,
// so its recycled scratch and stamps are exercised too.
func FuzzCheckerVsNaive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 12, 0, 1, 13, 0, 0, 0, 0})          // shadow flags flipped
	f.Add([]byte{2, 12, 5, 2, 13, 30, 2, 0, 3})         // broken shadow links
	f.Add([]byte{3, 1, 4, 4, 2, 31, 4, 3, 33, 4, 5, 6}) // duplicate, dangling, beyond memory
	f.Add([]byte{5, 4, 0, 5, 12, 0})                    // frames freed under mappings
	f.Add([]byte{6, 3, 0, 7, 4, 1, 8, 5, 2})            // tier, pid, vpn mismatches
	f.Add([]byte{9, 7, 0, 9, 8, 1, 10, 5, 0, 10, 6, 1}) // leaked frames
	f.Add([]byte{3, 1, 0, 10, 4, 0})                    // a duplicate hides a leak from the counts
	f.Add([]byte{0, 13, 0, 0, 3, 0, 1, 5, 0})           // shadow counter drift, stray shadowed mark
	f.Add([]byte{11, 0, 0, 11, 0, 1, 11, 0, 2})         // mover accounting
	over := make([]byte, 0, 3*14)
	for i := byte(0); i < 14; i++ {
		over = append(over, 6, i, i) // 14 tier mismatches: past maxViolations
	}
	f.Add(over)
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*64)]
		s := newFuzzState(t)
		c := New()
		for i := 0; ; i += 3 {
			got := errText(c.Check(s.phys, s.tables, s.mv))
			want := errText(naiveCheck(s.phys, s.tables, s.mv))
			if got != want {
				t.Fatalf("after %d ops:\n got: %q\nwant: %q", i/3, got, want)
			}
			if i+3 > len(ops) {
				return
			}
			s.corrupt(ops[i], ops[i+1], ops[i+2])
		}
	})
}

// TestSweepSeesFramesPastWatermark pins the one place the fused sweep
// is stricter than the multi-pass checker: a frame flagged allocated
// above its tier's watermark (only reachable by corrupting a
// descriptor directly) is still checked, because the sweep covers the
// whole frame array.
func TestSweepSeesFramesPastWatermark(t *testing.T) {
	s := newFuzzState(t)
	_, hi := s.phys.TierRange(2)
	pd := s.phys.Page(hi - 1) // the nvm tier's last frame, never allocated
	pd.Flags = mem.FlagAllocated | mem.FlagShadowed
	pd.ShadowLink = hi - 2 // a free frame, no shadow
	if err := naiveCheck(s.phys, s.tables, s.mv); err != nil {
		t.Fatalf("multi-pass checker saw the frame after all: %v", err)
	}
	err := New().Check(s.phys, s.tables, s.mv)
	want := fmt.Sprintf("shadowed primary PFN %d links to PFN %d which holds no shadow", hi-1, hi-2)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("fused sweep missed the flagged frame: %v", err)
	}
}
