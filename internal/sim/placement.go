package sim

import (
	"fmt"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/emul"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/provenance"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/workload"
)

// PlacementConfig assembles an end-to-end tiered-memory run (§VI-C):
// a machine whose fast tier holds only 1/Ratio of the footprint, a
// placement arm (first-touch baseline or TMP-driven policy), and
// optionally the BadgerTrap emulation cost model layered on top.
type PlacementConfig struct {
	CPU cpu.Config
	TMP core.Config
	// Ratio is the footprint:fast-tier ratio (the paper's 4 GB fast /
	// 60 GB slow testbed is ~1/16).
	Ratio int
	// Tiers is the machine's full tier chain (DefaultChain sizes one
	// for a workload). The policy's tier-1 capacity is the chain's top
	// tier less the huge-fault slack. nil resolves to
	// DefaultChain(w, Ratio, 2) — in a sharded run, per cell, from the
	// cell's own slice of the footprint.
	Tiers mem.TierChain
	// Policy drives migrations at epoch horizons; nil runs the
	// first-come-first-allocate baseline with no mover and no
	// profiler.
	Policy policy.Policy
	// Method selects the profiling evidence the policy ranks by.
	Method core.Method
	// EpochNS is the placement epoch.
	EpochNS   int64
	TotalRefs int
	BatchSize int
	Huge      bool
	// EmulCosts, when non-nil, enables the BadgerTrap emulation
	// framework with these costs (PaperCosts for §VI-C).
	EmulCosts *emul.Costs
	// Khugepaged enables the THP collapser: splits from partial-huge
	// migrations are periodically repaired so the address space does
	// not degrade to 4 KiB translations for the rest of the run.
	Khugepaged bool
	// Tracer, when non-nil, records structured telemetry for the run
	// (events, counters). Telemetry is inert: results are byte-identical
	// with or without it.
	Tracer *telemetry.Tracer
	// Faults, when non-nil, is the run's fault-injection plane (one
	// plane per run, like Tracer): it can drop IBS samples, abort
	// A-bit walks, wrap HWPC counters, and fail migrations. A nil
	// plane — and one with an all-zero spec — is inert.
	Faults *fault.Plane
	// Prov, when non-nil, is the run's decision-provenance flight
	// recorder (one recorder per run, like Tracer): it captures each
	// page's per-epoch evidence, rank position, and verdict. Inert like
	// telemetry: results are byte-identical with or without it.
	Prov *provenance.Recorder
	// Invariants asserts the epoch invariant checker (frame
	// conservation, mapping bijection, mover accounting) after every
	// placement pass; it is forced on whenever Faults can inject.
	Invariants bool
	// TxMigration switches the mover to the transactional engine:
	// multi-phase migrations (claim, copy-while-mapped, verify-clean,
	// remap), plus non-exclusive shadow copies making the re-demotion
	// of a clean page a zero-copy remap. Verify-clean aborts only when
	// the mem.copyabort fault site fires; stores retiring during the
	// copy are not modeled. Off runs the single-phase mover
	// bit-for-bit.
	TxMigration bool
	// AdmissionFrac bounds per-epoch migration traffic to this fraction
	// of EpochNS worth of simulated line-transfer time (the bandwidth
	// admission controller). <= 0 disables admission control.
	AdmissionFrac float64
}

// DefaultPlacementConfig mirrors DefaultConfig for placement runs.
func DefaultPlacementConfig(w workload.Workload, ibsPeriod, totalRefs, ratio int, p policy.Policy, m core.Method) PlacementConfig {
	cpuCfg, tmp := scaledDefaults(ibsPeriod)
	return PlacementConfig{
		CPU:        cpuCfg,
		TMP:        tmp,
		Ratio:      ratio,
		Policy:     p,
		Method:     m,
		EpochNS:    ScaledSecond,
		TotalRefs:  totalRefs,
		BatchSize:  1024,
		Huge:       true,
		Khugepaged: true,
	}
}

// DefaultChain sizes an n-tier chain (2 ≤ n ≤ 4) for a workload: the
// top tier holds 1/ratio of the footprint (plus huge-fault slack), the
// bottom tier alone can absorb the whole footprint with 25% headroom,
// and middle tiers step geometrically between them. The 3- and 4-tier
// shapes place a device-profiled CXL expander directly under DRAM, so
// a devprof tracker has a tier to observe. n == 2 is the DefaultTiers
// layout element for element, and what a placement run with nil Tiers
// gets.
func DefaultChain(w workload.Workload, ratio, n int) (mem.TierChain, error) {
	if ratio <= 0 {
		ratio = 16
	}
	foot := int(w.FootprintBytes() >> mem.PageShift)
	top := foot/ratio + mem.HugePages
	bottom := foot + foot/4 + mem.HugePages
	var spec string
	switch n {
	case 2:
		spec = fmt.Sprintf("dram:%d/nvm:%d", top, bottom)
	case 3:
		spec = fmt.Sprintf("dram:%d/cxl:%d/nvm:%d", top, 2*foot/ratio+mem.HugePages, bottom)
	case 4:
		spec = fmt.Sprintf("dram:%d/cxl:%d/nvm:%d/ssd:%d",
			top, 2*foot/ratio+mem.HugePages, 4*foot/ratio+mem.HugePages, bottom)
	default:
		return nil, fmt.Errorf("sim: no default %d-tier chain (want 2..4): %w", n, mem.ErrBadChain)
	}
	return mem.ParseTierChain(spec)
}

// PlacementResult summarizes an end-to-end run.
type PlacementResult struct {
	Workload   string
	Arm        string // "first-touch" or the policy/method name
	Refs       int
	DurationNS int64
	NumCores   int
	// Tier-1 hitrate over memory accesses, measured live.
	MemAccesses uint64
	Tier1Hits   uint64
	// The mover's counters (all zero for the first-touch arm): moves,
	// reason-partitioned failures, retry-queue outcomes, and the
	// transaction, shadow, and admission accounting.
	policy.MoverStats
	EmulInjected int64
	EmulFaults   uint64
	// FaultsInjected totals the plane's firings across every site.
	FaultsInjected uint64
	// Quarantined lists mechanisms the profiler permanently disabled,
	// in fixed (ibs, abit, hwpc, devprof) order.
	Quarantined []string
}

// Hitrate returns the live tier-1 memory hitrate.
func (r PlacementResult) Hitrate() float64 {
	if r.MemAccesses == 0 {
		return 0
	}
	return float64(r.Tier1Hits) / float64(r.MemAccesses)
}

// RunPlacement executes an end-to-end tiered run and returns its
// result. Speedup is computed by the caller as baseline duration over
// policy duration.
func RunPlacement(cfg PlacementConfig, w workload.Workload) (PlacementResult, error) {
	if cfg.EpochNS <= 0 {
		cfg.EpochNS = ScaledSecond
	}
	if cfg.Ratio <= 0 {
		cfg.Ratio = 16
	}
	if cfg.Tiers == nil {
		chain, err := DefaultChain(w, cfg.Ratio, 2)
		if err != nil {
			return PlacementResult{}, err
		}
		cfg.Tiers = chain
	}
	// Capacity the policy may fill: leave the huge-fault slack out so
	// promotions never fail on a full tier.
	capacity := max(cfg.Tiers[0].Frames-mem.HugePages, 0)
	r, err := assemble(Config{
		CPU: cfg.CPU, Tiers: cfg.Tiers, TMP: cfg.TMP, EpochNS: cfg.EpochNS,
		TotalRefs: cfg.TotalRefs, BatchSize: cfg.BatchSize, Huge: cfg.Huge,
		Tracer: cfg.Tracer, Faults: cfg.Faults, Invariants: cfg.Invariants,
	}, w, cfg.Policy != nil)
	if err != nil {
		return PlacementResult{}, err
	}
	m, prof := r.Machine, r.Profiler

	res := PlacementResult{Workload: w.Name(), Arm: "first-touch", NumCores: len(m.Cores())}

	var mover *policy.Mover
	if cfg.Policy != nil {
		res.Arm = fmt.Sprintf("%s/%s", cfg.Policy.Name(), cfg.Method)
		mover = policy.NewMover(m)
		mover.Transactional = cfg.TxMigration
		mover.AdmissionBudgetNS = policy.AdmissionBudgetNS(cfg.EpochNS, cfg.AdmissionFrac)
		mover.SetTracer(cfg.Tracer)
		mover.SetFaultPlane(cfg.Faults)
		if cfg.Prov.Enabled() {
			cfg.Prov.SetTracer(cfg.Tracer)
			mover.SetProvenance(cfg.Prov)
		}
	}
	var collapser *policy.Collapser
	if cfg.Khugepaged && cfg.Huge {
		collapser = policy.NewCollapser(m)
	}

	var em *emul.Emulator
	if cfg.EmulCosts != nil {
		costs := *cfg.EmulCosts
		if costs.WindowNS <= 0 {
			costs.WindowNS = cfg.EpochNS
		}
		em, err = emul.New(costs, m)
		if err != nil {
			return PlacementResult{}, err
		}
		if mover != nil {
			// Under emulation the paper's migration cost replaces
			// the mover's own estimate.
			mover.CostPerPageNS = costs.MigrationNS
		}
	}

	pids := w.Processes()
	// Harvest and rank scratch reused across epochs: the placement
	// loop drops both after the mover runs, so steady-state harvests
	// and rank tables allocate nothing (HarvestEpochInto recycles ep's
	// backing array, RanksInto the table and column).
	var ep core.EpochStats
	var ranks core.Ranks
	tick := func(now int64) {
		if prof != nil {
			prof.Tick(now)
		}
		if em != nil {
			em.TickIfDue(now)
		}
	}
	ls, err := r.drive(nil, tick, true, func(now int64) error {
		if prof != nil {
			prof.HarvestEpochInto(&ep)
			// Quarantine degrades the requested evidence method to
			// whatever mechanisms survive; without faults nothing is
			// ever quarantined and this is the identity.
			method := prof.EffectiveMethod(cfg.Method)
			sel := cfg.Policy.Select(ep, core.EpochStats{}, method, capacity)
			if cfg.Prov.Enabled() {
				// Record the harvest before the mover runs so the
				// evidence snapshot predates any tier transition.
				cfg.Prov.BeginEpoch(ep.Epoch, method, cfg.Method, mover.MinPromoteRank)
				cfg.Prov.ObserveHarvest(ep, func(k core.PageKey) bool {
					_, ok := sel[k]
					return ok
				})
			}
			core.RanksInto(&ranks, ep, method)
			promoted, demoted := mover.ApplySelection(sel, ranks)
			cfg.Prov.FinishEpoch()
			if em != nil && promoted+demoted > 0 {
				extra := em.ChargeMigration(promoted + demoted)
				m.Core(0).AdvanceClock(extra)
				// Newly demoted pages must be re-protected now, not at
				// the next window.
				em.Repoison()
			}
		} else {
			m.Phys.ResetEpochAll()
			// The baseline arm has no profiler to cut telemetry
			// epochs; cut here so its counter deltas stay aligned
			// to the same horizons as the policy arms.
			cfg.Tracer.CutEpoch(now, 0)
		}
		if collapser != nil {
			// khugepaged cadence: repair a couple of split chunks
			// per epoch.
			collapser.Collapse(pids, 2)
		}
		if err := r.check(mover); err != nil {
			return fmt.Errorf("sim: placement epoch at %dns: %w", now, err)
		}
		return nil
	})
	res.MemAccesses, res.Tier1Hits = ls.memAccesses, ls.tier1Hits
	if err != nil {
		return res, err
	}
	if err := r.check(mover); err != nil {
		return res, fmt.Errorf("sim: final state: %w", err)
	}
	res.Refs = ls.refs
	res.DurationNS = m.Now()
	if mover != nil {
		res.MoverStats = mover.MoverStats
	}
	if prof != nil {
		res.Quarantined = prof.QuarantinedMechanisms()
	}
	res.FaultsInjected = cfg.Faults.TotalInjected()
	if em != nil {
		s := em.Stats()
		res.EmulInjected = s.InjectedNS
		res.EmulFaults = s.Faults
	}
	return res, nil
}
