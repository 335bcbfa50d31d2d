// Package fixture exercises the epochaccount analyzer. The struct
// names shadow the real core.PageStat and mem.PageDescriptor; this
// package's import path is not a sanctioned accumulation path, so
// every counter write below is a finding.
package fixture

// PageStat mirrors core.PageStat's counter fields.
type PageStat struct {
	Abit  uint32
	Trace uint32
	Write uint32
	Dev   uint32
	True  uint32
	Other int
}

// PageDescriptor mirrors mem.PageDescriptor's counter fields.
type PageDescriptor struct {
	TrueTotal  uint64
	AbitEpoch  uint32
	TraceEpoch uint32
	DevEpoch   uint32
	Flags      uint8
}

// CopyProfile mirrors mem's one counter-transfer helper. Its body is
// a counter write like any other: legal only in internal/mem.
func (pd *PageDescriptor) CopyProfile(src *PageDescriptor) {
	pd.TrueTotal = src.TrueTotal // want `write to PageDescriptor.TrueTotal outside sanctioned`
}

// ResetEpoch mirrors the harvest's per-epoch reset; the body is elided.
func (pd *PageDescriptor) ResetEpoch() {}

// Hotness is a read-only method: calling it is not a write.
func (pd *PageDescriptor) Hotness() uint64 { return uint64(pd.AbitEpoch) }

func directWrites(ps *PageStat) {
	ps.Abit = 3           // want `write to PageStat.Abit outside sanctioned`
	ps.Trace++            // want `write to PageStat.Trace outside sanctioned`
	ps.Write += 1         // want `write to PageStat.Write outside sanctioned`
	ps.True = ps.True + 1 // want `write to PageStat.True outside sanctioned`
	ps.Dev = 9            // want `write to PageStat.Dev outside sanctioned`
	ps.Other = 7          // ok: not a protected counter
}

func descriptorWrites(pd *PageDescriptor) {
	pd.AbitEpoch++    // want `write to PageDescriptor.AbitEpoch outside sanctioned`
	pd.TraceEpoch = 0 // want `write to PageDescriptor.TraceEpoch outside sanctioned`
	pd.TrueTotal += 2 // want `write to PageDescriptor.TrueTotal outside sanctioned`
	pd.DevEpoch = 1   // want `write to PageDescriptor.DevEpoch outside sanctioned`
	pd.Flags |= 1     // ok: not a protected counter
}

func escapeHatch(pd *PageDescriptor) *uint32 {
	return &pd.TraceEpoch // want `write to PageDescriptor.TraceEpoch outside sanctioned`
}

func readsOK(ps *PageStat, pd *PageDescriptor) uint64 {
	return uint64(ps.Abit) + uint64(ps.Trace) + uint64(pd.AbitEpoch) // ok: reads never corrupt ranks
}

func helperCalls(dst, src *PageDescriptor) uint64 {
	dst.CopyProfile(src) // want `use of PageDescriptor.CopyProfile outside sanctioned`
	dst.CopyProfile(nil) // want `use of PageDescriptor.CopyProfile outside sanctioned`
	dst.ResetEpoch()     // want `use of PageDescriptor.ResetEpoch outside sanctioned`
	return dst.Hotness() // ok: reads never corrupt ranks
}

// helperValues writes the counters through a method value and a method
// expression rather than a direct call.
func helperValues(dst, src *PageDescriptor) uint64 {
	f := dst.ResetEpoch // want `use of PageDescriptor.ResetEpoch outside sanctioned`
	f()
	(*PageDescriptor).CopyProfile(dst, nil) // want `use of PageDescriptor.CopyProfile outside sanctioned`
	copyFn := (*PageDescriptor).CopyProfile // want `use of PageDescriptor.CopyProfile outside sanctioned`
	copyFn(dst, src)
	h := dst.Hotness // ok: a read-only method value
	return h()
}
