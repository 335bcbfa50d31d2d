package policy

import "tieredmem/internal/telemetry"

// MoverStats is the mover's reported counter set: placement outcomes
// plus the failure, retry, transaction, shadow, and admission
// accounting a placement result carries. Every field has exactly one
// entry in moverMetrics, and that table drives everything a counter
// feeds — the mover/* telemetry counters, cell-order sums (Add), and
// fault-attribution rows — so a new mover counter is one field, one
// table entry, and its increment.
type MoverStats struct {
	Promotions uint64
	Demotions  uint64
	// Failed aggregates every migration failure; the per-reason
	// counters below partition it (Failed = Capacity + Pinned +
	// Vanished + Split + AbortedDirty).
	Failed         uint64
	FailedCapacity uint64 // target tier had no frame (mem.ErrTierFull)
	FailedPinned   uint64 // page transiently pinned (mem.ErrPinned)
	FailedVanished uint64 // mapping gone mid-flight (mem.ErrUnmapped)
	FailedSplit    uint64 // THP split failed (ErrSplitFailed)
	// Retry-queue accounting. Retried counts re-attempts drained from
	// the queue; RetrySucceeded the ones that completed;
	// RetrySuperseded entries dropped because the selection reversed
	// direction before the retry came due; RetryDropped entries
	// abandoned at the attempt cap or queue bound.
	Retried         uint64
	RetrySucceeded  uint64
	RetrySuperseded uint64
	RetryDropped    uint64
	// Transaction accounting (Transactional mode only). Every claimed
	// transaction resolves exactly one way:
	// TxStarted = TxCommitted + AbortedDirty + Mover.TxRemapFailed.
	TxStarted    uint64
	TxCommitted  uint64
	AbortedDirty uint64 // the mem.copyabort site aborted the copy
	// Shadow-copy accounting: ShadowHits are demotions satisfied by
	// remapping to a still-valid shadow (zero copy work); ShadowStale
	// counts adoptions abandoned because the fault plane invalidated
	// the shadow at the last moment (the demotion then pays the full
	// copy path).
	ShadowHits  uint64
	ShadowStale uint64
	// Admission accounting (AdmissionBudgetNS > 0 only). Admitted* are
	// migrations charged against the epoch budget; DeferredAdmission
	// were pushed to the retry queue for the next epoch; Rejected* were
	// dropped because the queue was full too.
	AdmittedPromotions uint64
	AdmittedDemotions  uint64
	DeferredAdmission  uint64
	RejectedPromotions uint64
	RejectedDemotions  uint64
}

// moverMetric binds one MoverStats field to its metric name under the
// mover/ subsystem.
type moverMetric struct {
	name string
	// outcome marks the promotion and demotion totals: placement
	// results, not failure accounting, so fault attribution omits them.
	outcome bool
	field   func(*MoverStats) *uint64
}

// moverMetrics is the one counter table, in fault-attribution row
// order.
var moverMetrics = [...]moverMetric{
	{"promotions", true, func(s *MoverStats) *uint64 { return &s.Promotions }},
	{"demotions", true, func(s *MoverStats) *uint64 { return &s.Demotions }},
	{"failed", false, func(s *MoverStats) *uint64 { return &s.Failed }},
	{"failed_capacity", false, func(s *MoverStats) *uint64 { return &s.FailedCapacity }},
	{"failed_pinned", false, func(s *MoverStats) *uint64 { return &s.FailedPinned }},
	{"failed_vanished", false, func(s *MoverStats) *uint64 { return &s.FailedVanished }},
	{"failed_split", false, func(s *MoverStats) *uint64 { return &s.FailedSplit }},
	{"retries", false, func(s *MoverStats) *uint64 { return &s.Retried }},
	{"retry_succeeded", false, func(s *MoverStats) *uint64 { return &s.RetrySucceeded }},
	{"retry_superseded", false, func(s *MoverStats) *uint64 { return &s.RetrySuperseded }},
	{"retry_dropped", false, func(s *MoverStats) *uint64 { return &s.RetryDropped }},
	{"tx_started", false, func(s *MoverStats) *uint64 { return &s.TxStarted }},
	{"tx_committed", false, func(s *MoverStats) *uint64 { return &s.TxCommitted }},
	{"aborted_dirty", false, func(s *MoverStats) *uint64 { return &s.AbortedDirty }},
	{"shadow_hits", false, func(s *MoverStats) *uint64 { return &s.ShadowHits }},
	{"shadow_stale", false, func(s *MoverStats) *uint64 { return &s.ShadowStale }},
	{"admitted_promotions", false, func(s *MoverStats) *uint64 { return &s.AdmittedPromotions }},
	{"admitted_demotions", false, func(s *MoverStats) *uint64 { return &s.AdmittedDemotions }},
	{"deferred_admission", false, func(s *MoverStats) *uint64 { return &s.DeferredAdmission }},
	{"rejected_promotions", false, func(s *MoverStats) *uint64 { return &s.RejectedPromotions }},
	{"rejected_demotions", false, func(s *MoverStats) *uint64 { return &s.RejectedDemotions }},
}

// moverMetricName is the registered counter name of table entry m.
func moverMetricName(m moverMetric) string { return telemetry.Name("mover", m.name) }

// Add sums o into s, counter by counter (the cell-order reduce of a
// sharded run).
func (s *MoverStats) Add(o MoverStats) {
	for _, m := range moverMetrics {
		*m.field(s) += *m.field(&o)
	}
}

// AttributionCounters returns the fault-attribution rows of s: every
// counter but the promotion and demotion totals, named and ordered as
// the table lists them.
func (s *MoverStats) AttributionCounters() []telemetry.CounterValue {
	out := make([]telemetry.CounterValue, 0, len(moverMetrics))
	for _, m := range moverMetrics {
		if !m.outcome {
			out = append(out, telemetry.CounterValue{Name: moverMetricName(m), Value: *m.field(s)})
		}
	}
	return out
}
