package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"tieredmem/internal/fault"
	"tieredmem/internal/order"
)

func TestAddressMath(t *testing.T) {
	if PFNOf(0x12345) != 0x12 {
		t.Errorf("PFNOf(0x12345) = %#x, want 0x12", PFNOf(0x12345))
	}
	if PFN(0x12).PAddrOf() != 0x12000 {
		t.Errorf("PAddrOf = %#x, want 0x12000", PFN(0x12).PAddrOf())
	}
	if VPNOf(0xabcdef) != 0xabc {
		t.Errorf("VPNOf(0xabcdef) = %#x, want 0xabc", VPNOf(0xabcdef))
	}
	if VPN(0xabc).VAddrOf() != 0xabc000 {
		t.Errorf("VAddrOf = %#x, want 0xabc000", VPN(0xabc).VAddrOf())
	}
}

func TestAddressRoundtrip(t *testing.T) {
	f := func(addr uint64) bool {
		return PFNOf(addr).PAddrOf() == addr&^uint64(PageMask) &&
			VPNOf(addr).VAddrOf() == addr&^uint64(PageMask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTierIDString(t *testing.T) {
	if FastTier.String() != "fast" || SlowTier.String() != "slow" {
		t.Errorf("tier names: %v, %v", FastTier, SlowTier)
	}
	if TierID(5).String() != "tier(5)" {
		t.Errorf("TierID(5) = %v", TierID(5))
	}
}

func TestPageDescriptorHotness(t *testing.T) {
	pd := PageDescriptor{AbitEpoch: 3, TraceEpoch: 5}
	if pd.Hotness() != 8 {
		t.Errorf("Hotness = %d, want 8 (plain sum)", pd.Hotness())
	}
}

func TestPageDescriptorResetEpoch(t *testing.T) {
	pd := PageDescriptor{AbitEpoch: 3, TraceEpoch: 5, WriteEpoch: 2, DevEpoch: 4, TrueEpoch: 7,
		TrueTotal: 30}
	pd.ResetEpoch()
	if pd.AbitEpoch != 0 || pd.TraceEpoch != 0 || pd.WriteEpoch != 0 || pd.DevEpoch != 0 || pd.TrueEpoch != 0 {
		t.Errorf("epoch counters not cleared: %+v", pd)
	}
	if pd.TrueTotal != 37 {
		t.Errorf("TrueTotal = %d, want 37 (ground truth folded): %+v", pd.TrueTotal, pd)
	}
}

// profiled returns a descriptor whose profiling state is all distinct
// non-zero values.
func profiled() PageDescriptor {
	return PageDescriptor{TrueTotal: 50, AbitEpoch: 3, TraceEpoch: 4, WriteEpoch: 5, DevEpoch: 6, TrueEpoch: 7}
}

// sameProfile reports whether a and b agree on every field
// CopyProfile owns.
func sameProfile(a, b *PageDescriptor) bool {
	return a.TrueTotal == b.TrueTotal && a.AbitEpoch == b.AbitEpoch && a.TraceEpoch == b.TraceEpoch &&
		a.WriteEpoch == b.WriteEpoch && a.DevEpoch == b.DevEpoch && a.TrueEpoch == b.TrueEpoch
}

func TestCopyProfile(t *testing.T) {
	src := profiled()
	dst := PageDescriptor{Frame: 9, PID: 2, VPage: 11, ShadowLink: 3, Tier: SlowTier, Flags: FlagAllocated}
	dst.CopyProfile(&src)
	if !sameProfile(&dst, &src) {
		t.Errorf("CopyProfile missed a counter: got %+v from %+v", dst, src)
	}
	if dst.Frame != 9 || dst.PID != 2 || dst.VPage != 11 || dst.ShadowLink != 3 || dst.Tier != SlowTier || dst.Flags != FlagAllocated {
		t.Errorf("CopyProfile touched frame identity: %+v", dst)
	}
	dst.CopyProfile(nil)
	var zero PageDescriptor
	if !sameProfile(&dst, &zero) {
		t.Errorf("CopyProfile(nil) left state behind: %+v", dst)
	}
	if dst.Frame != 9 || dst.Flags != FlagAllocated {
		t.Errorf("CopyProfile(nil) touched frame identity: %+v", dst)
	}
}

func TestTierSpecValidate(t *testing.T) {
	good := TierSpec{Name: "x", Frames: 1, ReadLatency: 1, WriteLatency: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, bad := range []TierSpec{
		{Name: "x", Frames: 0, ReadLatency: 1, WriteLatency: 1},
		{Name: "x", Frames: 1, ReadLatency: 0, WriteLatency: 1},
		{Name: "x", Frames: 1, ReadLatency: 1, WriteLatency: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid spec %+v accepted", bad)
		}
	}
}

func newTestMem(t *testing.T, fast, slow int) *PhysMem {
	t.Helper()
	pm, err := NewPhysMem(DefaultTiers(fast, slow))
	if err != nil {
		t.Fatalf("NewPhysMem: %v", err)
	}
	return pm
}

func TestAllocBasics(t *testing.T) {
	pm := newTestMem(t, 4, 4)
	if pm.TotalFrames() != 8 {
		t.Fatalf("TotalFrames = %d, want 8", pm.TotalFrames())
	}
	pfn, err := pm.Alloc(FastTier, 1, 100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	pd := pm.Page(pfn)
	if !pd.Allocated() || pd.PID != 1 || pd.VPage != 100 || pd.Tier != FastTier {
		t.Errorf("descriptor not initialized: %+v", pd)
	}
	if pm.UsedFrames(FastTier) != 1 || pm.FreeFrames(FastTier) != 3 {
		t.Errorf("used/free = %d/%d, want 1/3", pm.UsedFrames(FastTier), pm.FreeFrames(FastTier))
	}
}

func TestAllocSpillsToSlowTier(t *testing.T) {
	pm := newTestMem(t, 2, 4)
	for i := 0; i < 2; i++ {
		if _, err := pm.Alloc(FastTier, 1, VPN(i)); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	pfn, err := pm.Alloc(FastTier, 1, 99)
	if err != nil {
		t.Fatalf("spill Alloc: %v", err)
	}
	if pm.TierOf(pfn) != SlowTier {
		t.Errorf("third frame in tier %v, want spill to slow", pm.TierOf(pfn))
	}
}

func TestAllocOOM(t *testing.T) {
	pm := newTestMem(t, 1, 1)
	pm.Alloc(FastTier, 1, 0)
	pm.Alloc(FastTier, 1, 1)
	if _, err := pm.Alloc(FastTier, 1, 2); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestAllocInNoSpill(t *testing.T) {
	pm := newTestMem(t, 1, 4)
	pm.AllocIn(FastTier, 1, 0)
	_, err := pm.AllocIn(FastTier, 1, 1)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("AllocIn spilled or wrong error: %v", err)
	}
	// The typed sentinel is what the mover's retry logic branches on.
	if !errors.Is(err, ErrTierFull) {
		t.Errorf("AllocIn error %v does not wrap ErrTierFull", err)
	}
	if pm.UsedFrames(SlowTier) != 0 {
		t.Errorf("AllocIn leaked into slow tier")
	}
}

func TestAllocInFaultInjection(t *testing.T) {
	pm := newTestMem(t, 8, 8)
	spec, err := fault.ParseSpec("mem.enomem=1")
	if err != nil {
		t.Fatal(err)
	}
	pm.SetFaultPlane(fault.New(spec, 42))
	_, err = pm.AllocIn(FastTier, 1, 0)
	if !errors.Is(err, ErrTierFull) {
		t.Fatalf("injected AllocIn error = %v, want ErrTierFull", err)
	}
	// Injected pressure is transient and must not wrap the permanent
	// out-of-frames condition: frames were free.
	if errors.Is(err, ErrOutOfMemory) {
		t.Errorf("injected pressure wraps ErrOutOfMemory: %v", err)
	}
	if pm.UsedFrames(FastTier) != 0 {
		t.Errorf("failed AllocIn claimed a frame")
	}
	// Demand allocation is never injected.
	if _, err := pm.Alloc(FastTier, 1, 0); err != nil {
		t.Errorf("Alloc under fault plane: %v", err)
	}
	// A zero-rate plane injects nothing.
	pm2 := newTestMem(t, 1, 1)
	pm2.SetFaultPlane(fault.New(fault.Spec{}, 42))
	if _, err := pm2.AllocIn(FastTier, 1, 0); err != nil {
		t.Errorf("zero-rate AllocIn: %v", err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	pm := newTestMem(t, 2, 2)
	pfn, _ := pm.Alloc(FastTier, 1, 0)
	pm.Free(pfn)
	if pm.Page(pfn).Allocated() {
		t.Errorf("freed frame still allocated")
	}
	if pm.FreeFrames(FastTier) != 2 {
		t.Errorf("free count = %d, want 2", pm.FreeFrames(FastTier))
	}
	// The frame must be allocatable again.
	seen := map[PFN]bool{}
	for i := 0; i < 2; i++ {
		p, err := pm.Alloc(FastTier, 1, VPN(i))
		if err != nil {
			t.Fatalf("re-alloc: %v", err)
		}
		seen[p] = true
	}
	if !seen[pfn] {
		t.Errorf("freed frame %d never reused", pfn)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	pm := newTestMem(t, 2, 2)
	pfn, _ := pm.Alloc(FastTier, 1, 0)
	pm.Free(pfn)
	defer func() {
		if recover() == nil {
			t.Errorf("double free did not panic")
		}
	}()
	pm.Free(pfn)
}

// TestAllocResetsProfilingState: a re-claimed frame starts with no
// evidence. The PML write count used to survive the claim, so a new
// owner inherited the previous owner's writes.
func TestAllocResetsProfilingState(t *testing.T) {
	pm := newTestMem(t, 2, 2)
	pfn, _ := pm.Alloc(FastTier, 1, 0)
	src := profiled()
	pm.Page(pfn).CopyProfile(&src)
	pm.Free(pfn)
	pfn2, _ := pm.Alloc(FastTier, 2, 7)
	if pfn2 != pfn {
		// Next-fit may pick the other frame first; force reuse.
		pm.Free(pfn2)
		pfn2, _ = pm.Alloc(FastTier, 2, 7)
	}
	if pfn2 != pfn {
		t.Fatalf("frame %d never re-claimed (got %d)", pfn, pfn2)
	}
	var zero PageDescriptor
	if pd2 := pm.Page(pfn2); !sameProfile(pd2, &zero) {
		t.Errorf("profiling state leaked across allocations: %+v", pd2)
	}
}

// TestAdoptShadowCarriesProfile: adopting a shadow makes it the page's
// primary frame, with the page's full evidence.
func TestAdoptShadowCarriesProfile(t *testing.T) {
	pm := newTestMem(t, 4, 4)
	slow, _ := pm.AllocIn(SlowTier, 1, 5)
	fast, _ := pm.AllocIn(FastTier, 1, 5)
	pm.MakeShadow(slow, fast)
	src := profiled()
	pm.Page(fast).CopyProfile(&src)
	adopted := pm.AdoptShadow(fast)
	if adopted != slow {
		t.Fatalf("AdoptShadow = %d, want the shadow frame %d", adopted, slow)
	}
	if pd := pm.Page(adopted); !pd.Allocated() || !sameProfile(pd, &src) {
		t.Errorf("adopted frame lost profiling state: %+v, want counters of %+v", pd, src)
	}
}

func TestAllocHugeAlignedContiguous(t *testing.T) {
	pm := newTestMem(t, 3*HugePages, HugePages)
	base, err := pm.AllocHuge(FastTier, 1, 0)
	if err != nil {
		t.Fatalf("AllocHuge: %v", err)
	}
	if uint64(base)%HugePages != 0 {
		t.Errorf("base PFN %d not 2MiB aligned", base)
	}
	for i := 0; i < HugePages; i++ {
		pd := pm.Page(base + PFN(i))
		if !pd.Allocated() || pd.PID != 1 || pd.VPage != VPN(i) {
			t.Fatalf("frame %d not claimed correctly: %+v", i, pd)
		}
	}
	if pm.UsedFrames(FastTier) != HugePages {
		t.Errorf("used = %d, want %d", pm.UsedFrames(FastTier), HugePages)
	}
}

func TestAllocHugeMisalignedVPN(t *testing.T) {
	pm := newTestMem(t, 2*HugePages, HugePages)
	if _, err := pm.AllocHuge(FastTier, 1, 3); err == nil {
		t.Errorf("misaligned huge vpn accepted")
	}
}

func TestAllocHugeFragmentationFallback(t *testing.T) {
	pm := newTestMem(t, 2*HugePages, 0+HugePages)
	// Fragment the fast tier: one 4 KiB page in each aligned chunk.
	// Base pages allocate bottom-up, so poke holes manually by
	// allocating until each chunk has at least one used frame.
	for i := 0; i < 2*HugePages; i += HugePages {
		if _, err := pm.Alloc(FastTier, 1, VPN(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Both fast chunks hold a base page now? Base pages allocate
	// next-fit from the bottom, so only the first chunk is dirty;
	// dirty the second chunk's first frame explicitly via many allocs.
	for i := 0; pm.FreeFrames(FastTier) > HugePages-2 && i < HugePages; i++ {
		if _, err := pm.Alloc(FastTier, 1, VPN(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := pm.AllocHuge(FastTier, 1, 0)
	// Either it found a clean chunk (fine) or it reports
	// ErrNoContiguous / spills to slow: never a different error.
	if err != nil && !errors.Is(err, ErrNoContiguous) && !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestAllocHugeSpillsToSlow(t *testing.T) {
	pm := newTestMem(t, HugePages/2, 2*HugePages) // fast tier too small
	base, err := pm.AllocHuge(FastTier, 1, 0)
	if err != nil {
		t.Fatalf("AllocHuge: %v", err)
	}
	if pm.TierOf(base) != SlowTier {
		t.Errorf("huge allocation in tier %v, want spill to slow", pm.TierOf(base))
	}
}

func TestFreeHuge(t *testing.T) {
	pm := newTestMem(t, 2*HugePages, HugePages)
	base, err := pm.AllocHuge(FastTier, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pm.FreeHuge(base)
	if pm.UsedFrames(FastTier) != 0 {
		t.Errorf("used = %d after FreeHuge, want 0", pm.UsedFrames(FastTier))
	}
}

func TestHugeAndBaseCoexist(t *testing.T) {
	pm := newTestMem(t, 4*HugePages, HugePages)
	var basePages []PFN
	for i := 0; i < 100; i++ {
		p, err := pm.Alloc(FastTier, 1, VPN(i))
		if err != nil {
			t.Fatal(err)
		}
		basePages = append(basePages, p)
	}
	hbase, err := pm.AllocHuge(FastTier, 2, 0)
	if err != nil {
		t.Fatalf("AllocHuge with base pages present: %v", err)
	}
	for _, bp := range basePages {
		if bp >= hbase && bp < hbase+HugePages {
			t.Fatalf("huge run overlaps base page %d", bp)
		}
	}
}

func TestForEachAllocated(t *testing.T) {
	pm := newTestMem(t, 4, 4)
	pm.Alloc(FastTier, 1, 0)
	pm.Alloc(SlowTier, 1, 1)
	count := 0
	var last PFN
	first := true
	pm.ForEachAllocated(func(pd *PageDescriptor) {
		count++
		if !first && pd.Frame <= last {
			t.Errorf("not ascending: %d after %d", pd.Frame, last)
		}
		last, first = pd.Frame, false
	})
	if count != 2 {
		t.Errorf("visited %d frames, want 2", count)
	}
}

func TestResetEpochAll(t *testing.T) {
	pm := newTestMem(t, 4, 4)
	pfn, _ := pm.Alloc(FastTier, 1, 0)
	pd := pm.Page(pfn)
	pd.AbitEpoch, pd.TrueEpoch = 5, 6
	pm.ResetEpochAll()
	if pd.AbitEpoch != 0 || pd.TrueEpoch != 0 || pd.TrueTotal != 6 {
		t.Errorf("ResetEpochAll: %+v", pd)
	}
}

// TestAllocatorConservation is a property test: any interleaving of
// allocs and frees conserves frame counts and never double-assigns a
// frame.
func TestAllocatorConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		pm, err := NewPhysMem(DefaultTiers(32, 32))
		if err != nil {
			return false
		}
		live := map[PFN]bool{}
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				pfn := order.SortedKeys(live)[0]
				pm.Free(pfn)
				delete(live, pfn)
				continue
			}
			pfn, err := pm.Alloc(FastTier, 1, VPN(op))
			if err != nil {
				if !errors.Is(err, ErrOutOfMemory) {
					return false
				}
				continue
			}
			if live[pfn] {
				return false // double assignment
			}
			live[pfn] = true
		}
		used := pm.UsedFrames(FastTier) + pm.UsedFrames(SlowTier)
		free := pm.FreeFrames(FastTier) + pm.FreeFrames(SlowTier)
		return used == len(live) && used+free == pm.TotalFrames()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
