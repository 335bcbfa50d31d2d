package main

import "sort"

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units (pinned by TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics. The host timings are medians over
// the run's passes; the simulated ones repeat exactly for a seed.
var endToEnd = []metricDef{
	{"refs_per_s", "refs/s"},            // refs ÷ host wall of one whole public-entry call
	{"setup_s", "s"},                    // workload construction through Register
	{"peak_rss_mib", "MiB"},             // ru_maxrss after the untraced passes
	{"alloc_bytes_per_ref", "B/ref"},    // /gc/heap/allocs:bytes growth over a pass ÷ refs
	{"sim_ns_per_ref", "ns/ref"},        // virtual duration ÷ refs
	{"tier1_hitrate", "frac"},           // tier-1 share of memory-served references
	{"profiling_overhead_frac", "frac"}, // §VI-B: profiler virtual ns ÷ (duration × cores)
}

// perLayer are the traced pass's metrics. Times are span self times;
// shares are of the traced pass's wall time. A layer a workload never
// calls reads 0.
var perLayer = []metricDef{
	{"workload.ns_per_ref", "ns/ref"},
	{"workload.share", "frac"},
	{"cpu.ns_per_ref", "ns/ref"},
	{"cpu.share", "frac"},
	{"cpu.tlb_l1_miss_ratio", "frac"},
	{"cpu.tlb_l2_miss_ratio", "frac"},
	{"cpu.walks_per_kref", "1/kref"},
	{"cpu.ctx_switches_per_kref", "1/kref"},
	{"cpu.l1_hit_ratio", "frac"},
	{"cpu.l2_hit_ratio", "frac"},
	{"cpu.llc_hit_ratio", "frac"},
	{"cpu.mem_access_ratio", "frac"},
	{"cpu.prefetch_hits_per_kref", "1/kref"},
	{"cpu.minor_faults", "count"},
	{"cpu.huge_faults", "count"},
	{"core.tick_ns_per_call", "ns"},
	{"core.tick_share", "frac"},
	{"core.harvest_ns_per_epoch", "ns"},
	{"core.harvest_ns_per_page", "ns"},
	{"core.harvest_pages_per_epoch", "count"},
	{"core.harvest_share", "frac"},
	{"core.ranks_ns_per_epoch", "ns"},
	{"core.ibs_overhead_frac", "frac"},
	{"core.abit_overhead_frac", "frac"},
	{"core.hwpc_overhead_frac", "frac"},
	{"core.epochs", "count"},
	{"policy.select_ns_per_epoch", "ns"},
	{"policy.selected_per_epoch", "count"},
	{"policy.mover_ns_per_epoch", "ns"},
	{"policy.mover_ns_per_migration", "ns"},
	{"policy.migrations_per_epoch", "count"},
	{"policy.mover_fail_ratio", "frac"},
	{"policy.tx_commit_ratio", "frac"},
	{"policy.shadow_hits_per_epoch", "count"},
	{"policy.collapse_ns_per_epoch", "ns"},
	{"policy.collapses_per_epoch", "count"},
	{"policy.share", "frac"},
	{"invariant.ns_per_epoch", "ns"},
	{"invariant.share", "frac"},
	{"sim.setup_share", "frac"},
	{"sim.unattributed_share", "frac"},
	{"sim.trace_overhead_frac", "frac"},
}

// ratio is a / b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median[T int64 | uint64](xs []T) float64 {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}

func (r *report) endToEnd(b bench) map[string]float64 {
	c := r.counts
	refs := float64(b.refs)
	return map[string]float64{
		"refs_per_s":              refs / (median(r.wallNS) / 1e9),
		"setup_s":                 median(r.setupNS) / 1e9,
		"peak_rss_mib":            r.rssMiB,
		"alloc_bytes_per_ref":     median(r.allocBytes) / refs,
		"sim_ns_per_ref":          float64(c.durationNS) / refs,
		"tier1_hitrate":           ratio(float64(c.tier1Hits), float64(c.memAccesses)),
		"profiling_overhead_frac": ratio(float64(c.ibsNS+c.abitNS+c.hwpcNS), float64(c.durationNS)*float64(c.cores)),
	}
}

func (r *report) perLayer() map[string]float64 {
	c, lt := r.counts, r.table
	refs := float64(c.refs)
	kref := refs / 1000
	self := func(name string) float64 { return float64(lt.row(name).selfNS) }
	calls := func(name string) float64 { return float64(lt.row(name).calls) }
	share := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += lt.row(n).selfNS
		}
		return lt.share(ns)
	}
	cpuTime := float64(c.durationNS) * float64(c.cores)

	epochs := float64(c.epochs)
	m := map[string]float64{
		"workload.ns_per_ref":          self("workload.fill") / refs,
		"workload.share":               share("workload.fill"),
		"cpu.ns_per_ref":               self("cpu.execute") / refs,
		"cpu.share":                    share("cpu.execute"),
		"cpu.tlb_l1_miss_ratio":        c.tlbL1.missRatio(),
		"cpu.tlb_l2_miss_ratio":        c.tlbL2.missRatio(),
		"cpu.walks_per_kref":           float64(c.tlbL2.misses) / kref,
		"cpu.ctx_switches_per_kref":    float64(c.ctxSwitches) / kref,
		"cpu.l1_hit_ratio":             c.l1.hitRatio(),
		"cpu.l2_hit_ratio":             c.l2.hitRatio(),
		"cpu.llc_hit_ratio":            c.llc.hitRatio(),
		"cpu.mem_access_ratio":         float64(c.memAccesses) / refs,
		"cpu.prefetch_hits_per_kref":   float64(c.prefetchHits) / kref,
		"cpu.minor_faults":             float64(c.minorFaults),
		"cpu.huge_faults":              float64(c.hugeFaults),
		"core.tick_ns_per_call":        ratio(self("core.tick"), calls("core.tick")),
		"core.tick_share":              share("core.tick"),
		"core.harvest_ns_per_epoch":    ratio(self("core.harvest"), calls("core.harvest")),
		"core.harvest_ns_per_page":     ratio(self("core.harvest"), float64(c.harvested)),
		"core.harvest_pages_per_epoch": ratio(float64(c.harvested), epochs),
		"core.harvest_share":           share("core.harvest"),
		"core.ranks_ns_per_epoch":      ratio(self("core.ranks"), calls("core.ranks")),
		"core.ibs_overhead_frac":       ratio(float64(c.ibsNS), cpuTime),
		"core.abit_overhead_frac":      ratio(float64(c.abitNS), cpuTime),
		"core.hwpc_overhead_frac":      ratio(float64(c.hwpcNS), cpuTime),
		"core.epochs":                  epochs,
		"policy.select_ns_per_epoch":   ratio(self("policy.select"), calls("policy.select")),
		"policy.selected_per_epoch":    ratio(float64(c.selected), calls("policy.select")),
		"policy.mover_ns_per_epoch":    ratio(self("policy.mover"), calls("policy.mover")),
		"policy.collapse_ns_per_epoch": ratio(self("policy.collapse"), calls("policy.collapse")),
		"policy.collapses_per_epoch":   ratio(float64(c.collapses), calls("policy.collapse")),
		"policy.share":                 share("policy.select", "policy.mover", "policy.collapse"),
		"invariant.ns_per_epoch":       ratio(self("invariant.check"), calls("invariant.check")),
		"invariant.share":              share("invariant.check"),
		"sim.setup_share":              share("sim.setup"),
		"sim.unattributed_share":       lt.share(lt.unattributedNS()),
		"sim.trace_overhead_frac":      (float64(lt.wallNS) - median(r.wallNS)) / median(r.wallNS),
	}
	moved, moverCalls := float64(c.migrations), calls("policy.mover")
	m["policy.mover_ns_per_migration"] = ratio(self("policy.mover"), moved)
	m["policy.migrations_per_epoch"] = ratio(moved, moverCalls)
	m["policy.mover_fail_ratio"] = ratio(float64(c.moveFailed), moved+float64(c.moveFailed))
	m["policy.tx_commit_ratio"] = ratio(float64(c.txCommitted), float64(c.txStarted))
	m["policy.shadow_hits_per_epoch"] = ratio(float64(c.shadowHits), moverCalls)
	return m
}
