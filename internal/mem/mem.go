// Package mem models the physical memory of a tiered-memory machine:
// byte addresses, page frames, per-tier frame allocation, and the
// per-frame page descriptors that TMP extends with profiling state
// (the paper extends Linux's struct page the same way, §III-B1).
package mem

import "fmt"

// Page geometry. The simulator uses x86-style 4 KiB base pages.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// TierID identifies a memory tier. Tier 0 is the fast tier ("tier 1
// memory" in the paper: DRAM); tier 1 is the slow tier ("tier 2": NVM).
// It is one byte so the page descriptor fits a cache line; a machine
// has at most MaxTiers tiers.
type TierID uint8

// MaxTiers is the most tiers a machine or tier chain may have: every
// TierID from 0 to 255.
const MaxTiers = 256

const (
	// FastTier is DRAM-class memory (the paper's tier 1).
	FastTier TierID = 0
	// SlowTier is NVM-class memory (the paper's tier 2).
	SlowTier TierID = 1
)

// String returns "fast" or "slow" (or a numeric form for other IDs).
func (t TierID) String() string {
	switch t {
	case FastTier:
		return "fast"
	case SlowTier:
		return "slow"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// PFN is a physical frame number.
type PFN uint64

// PAddrOf returns the first byte address of the frame.
func (p PFN) PAddrOf() uint64 { return uint64(p) << PageShift }

// PFNOf returns the frame containing a physical byte address.
func PFNOf(paddr uint64) PFN { return PFN(paddr >> PageShift) }

// VPN is a virtual page number.
type VPN uint64

// VPNOf returns the virtual page containing a virtual byte address.
func VPNOf(vaddr uint64) VPN { return VPN(vaddr >> PageShift) }

// VAddrOf returns the first byte address of the virtual page.
func (v VPN) VAddrOf() uint64 { return uint64(v) << PageShift }

// PageFlags carries page-state bits relevant to placement.
type PageFlags uint8

const (
	// FlagAllocated marks a frame backing a live mapping.
	FlagAllocated PageFlags = 1 << iota
	// FlagNonMigratable marks frames the policy must not move
	// (pinned/kernel pages; the paper's step 2 filters these).
	FlagNonMigratable
	// FlagPoisoned marks frames whose PTE carries the BadgerTrap
	// reserved-bit poison used by the emulation framework.
	FlagPoisoned
	// FlagShadow marks a frame holding a non-exclusive shadow copy of a
	// page promoted out of this tier (the Nomad model). Shadow frames
	// are neither allocated nor free: they back no mapping, but a
	// demotion back to this tier can adopt one with a remap and zero
	// copy work. ShadowLink names the allocated primary frame.
	FlagShadow
	// FlagShadowed marks an allocated frame whose page still has a
	// valid shadow copy in a slower tier; ShadowLink names the shadow
	// frame. Cleared when the page is written (the copy goes stale) or
	// the shadow frame is reclaimed for an allocation.
	FlagShadowed
)

// PageDescriptor is the per-frame metadata record. TMP accumulates
// profiling observations here: separate counters for A-bit and
// trace-based (IBS/PEBS) evidence for the current epoch, which the
// profiler harvests and clears at each epoch horizon.
//
// Like Linux's struct page it fits one 64-byte host cache line, so a
// per-frame sweep touches one line per frame: the 8-byte fields come
// first, then the five 32-bit epoch counters, then the two bytes of
// tier and flags (TestPageDescriptorLayout pins the size).
type PageDescriptor struct {
	Frame PFN
	PID   int // owning process, -1 when free
	VPage VPN // virtual page currently mapped to this frame

	// ShadowLink pairs a shadowed primary with its shadow frame:
	// on a FlagShadowed frame it names the shadow, on a FlagShadow
	// frame it names the primary. Meaningless unless one of those
	// flags is set.
	ShadowLink PFN

	// Ground truth maintained by the simulator itself (invisible to
	// any profiling method): demand accesses served from memory, the
	// quantity the paper's Fig. 6 hitrate and Oracle policy are
	// defined over. TrueTotal is the all-time count; TrueEpoch below
	// is this epoch's.
	TrueTotal uint64

	// Profiling state (the paper's extended struct page): A-bit
	// observations and trace (IBS/PEBS) samples this epoch.
	AbitEpoch  uint32
	TraceEpoch uint32

	// Write-path profiling state: D-bit-set events logged by the
	// PML engine this epoch (an extension; the paper focuses on the A
	// bit for performance and mentions PML for write tracking).
	WriteEpoch uint32

	// Device-side profiling state: accesses observed this epoch by a
	// CXL-resident hot-page tracker (the NeoMem model — counters live
	// on the device and see physical traffic with zero host sampling
	// cost). Always zero on frames outside device tiers and in runs
	// without a devprof tracker.
	DevEpoch uint32

	TrueEpoch uint32

	Tier  TierID
	Flags PageFlags
}

// Hotness returns the current-epoch hotness rank: the paper's simple
// sum of A-bit and trace-based samples (§IV step 1, justified by
// Fig. 2's same-order-of-magnitude event populations).
func (pd *PageDescriptor) Hotness() uint64 {
	return uint64(pd.AbitEpoch) + uint64(pd.TraceEpoch)
}

// ResetEpoch folds the ground-truth epoch count into TrueTotal and
// zeroes every epoch counter.
func (pd *PageDescriptor) ResetEpoch() {
	pd.TrueTotal += uint64(pd.TrueEpoch)
	pd.AbitEpoch = 0
	pd.TraceEpoch = 0
	pd.WriteEpoch = 0
	pd.DevEpoch = 0
	pd.TrueEpoch = 0
}

// CopyProfile overwrites pd's profiling state — every epoch counter
// and TrueTotal — with src's, or clears it when src is nil. It is the
// one place a frame's evidence changes hands: a claimed frame starts
// clean, and a page that moves to a new frame (migration, huge-page
// collapse, shadow adoption) takes its evidence along, because
// hotness belongs to the logical page, not the frame.
func (pd *PageDescriptor) CopyProfile(src *PageDescriptor) {
	if src == nil {
		pd.TrueTotal = 0
		pd.AbitEpoch, pd.TraceEpoch, pd.WriteEpoch, pd.DevEpoch, pd.TrueEpoch = 0, 0, 0, 0, 0
		return
	}
	pd.TrueTotal = src.TrueTotal
	pd.AbitEpoch, pd.TraceEpoch = src.AbitEpoch, src.TraceEpoch
	pd.WriteEpoch, pd.DevEpoch, pd.TrueEpoch = src.WriteEpoch, src.DevEpoch, src.TrueEpoch
}

// Allocated reports whether the frame backs a live mapping.
func (pd *PageDescriptor) Allocated() bool { return pd.Flags&FlagAllocated != 0 }
