package main

import (
	"fmt"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault/invariant"
	"tieredmem/internal/ibs"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/sim"
	"tieredmem/internal/trace"
	"tieredmem/internal/workload"
)

// spec is one benchmark workload: a single policy arm (or one
// profiling run) on one simulation goroutine, built only from the seed.
type spec struct {
	name string
	// refs is the reference count of one pass.
	refs int
	// placement selects sim.RunPlacement; otherwise sim.New + Run.
	placement bool
	// flags is the CLI invocation that runs the same simulation.
	flags string
	// build returns the workload and the resolved config of one pass.
	build func(seed int64, refs int) (workload.Workload, config, error)
}

// config is the resolved configuration of one pass: exactly one of
// place and prof is set.
type config struct {
	place *sim.PlacementConfig
	prof  *sim.Config
}

// Each workload runs the History policy on method tmp (or, for the
// profiling run, no policy) with 1-virtual-ms epochs. Why each one is
// in the benchmark, and what a change to each layer should move on it,
// is in README.md.
var specs = []*spec{
	{
		name:      "gups-place",
		refs:      1_000_000,
		placement: true,
		flags:     "tmpsim -workload gups -ratio 16 -policy history -method tmp -period 4096",
		build: func(seed int64, refs int) (workload.Workload, config, error) {
			w, err := workload.New("gups", workload.Config{Seed: seed, FirstPID: 100})
			if err != nil {
				return nil, config{}, err
			}
			cfg := sim.DefaultPlacementConfig(w, 4096, refs, 16, policy.History{}, core.MethodCombined)
			return w, config{place: &cfg}, nil
		},
	},
	{
		name:      "dcache-tx3",
		refs:      1_000_000,
		placement: true,
		flags:     "tmpsim -workload data-caching -scale -3 -tiers 3 -txmig -ratio 16 -policy history -method tmp -period 4096",
		build: func(seed int64, refs int) (workload.Workload, config, error) {
			w, err := workload.New("data-caching", workload.Config{Seed: seed, ScaleShift: -3, FirstPID: 100})
			if err != nil {
				return nil, config{}, err
			}
			chain, err := sim.DefaultChain(w, 16, 3)
			if err != nil {
				return nil, config{}, err
			}
			cfg := sim.DefaultPlacementConfig(w, 4096, refs, 16, policy.History{}, core.MethodCombined)
			cfg.Tiers = chain
			cfg.TMP.EnableDevProf = chain.HasDevice()
			cfg.TxMigration = true
			cfg.Invariants = true
			return w, config{place: &cfg}, nil
		},
	},
	{
		name:  "xsbench-prof",
		refs:  1_000_000,
		flags: "tmpprof -workload xsbench -rate 4x -period 16384 -gating",
		build: func(seed int64, refs int) (workload.Workload, config, error) {
			w, err := workload.New("xsbench", workload.Config{Seed: seed, FirstPID: 100})
			if err != nil {
				return nil, config{}, err
			}
			cfg := sim.DefaultConfig(w, ibs.PeriodForRate(16384, ibs.Rate4x), refs)
			cfg.TMP.Gating = true
			return w, config{prof: &cfg}, nil
		},
	},
}

func lookup(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// tierChain renders the tier chain a pass runs on, resolving the
// legacy two-tier sizing the way sim.RunPlacement and sim.New do.
func (c config) tierChain(w workload.Workload) string {
	if c.prof != nil {
		return mem.TierChain(c.prof.Tiers).String()
	}
	if c.place.Tiers != nil {
		return c.place.Tiers.String()
	}
	fast, slow := legacyTiers(w, c.place.Ratio)
	return mem.TierChain(mem.DefaultTiers(fast, slow)).String()
}

func (c config) invariants() bool {
	if c.prof != nil {
		return c.prof.Invariants
	}
	return c.place.Invariants
}

// legacyTiers is sim.RunPlacement's Tiers == nil sizing.
func legacyTiers(w workload.Workload, ratio int) (fast, slow int) {
	foot := int(w.FootprintBytes() >> mem.PageShift)
	return foot/ratio + mem.HugePages, foot + foot/4 + mem.HugePages
}

// runPublic is the untraced pass: the simulator's own public entry
// point, called once and timed from outside by the caller.
func runPublic(s *spec, seed int64, refs int) (any, error) {
	w, cfg, err := s.build(seed, refs)
	if err != nil {
		return nil, err
	}
	if cfg.place != nil {
		return sim.RunPlacement(*cfg.place, w)
	}
	r, err := sim.New(*cfg.prof, w)
	if err != nil {
		return nil, err
	}
	return r.Run(sim.Hooks{})
}

// counts are the layer counters of a traced pass, read through public
// accessors after its run (the loop's own tallies aside).
type counts struct {
	refs        int
	durationNS  int64
	cores       int
	ibsNS       int64
	abitNS      int64
	hwpcNS      int64
	memAccesses uint64
	tier1Hits   uint64
	epochs      int
	harvested   uint64 // pages harvested over all epochs
	selected    uint64 // pages selected over all epochs
	collapses   uint64

	tlbL1, tlbL2, l1, l2, llc hitMiss // summed over cores; the LLC is shared
	prefetchHits, ctxSwitches uint64
	minorFaults, hugeFaults   uint64

	// Mover counters; all zero without a mover.
	migrations, moveFailed, txStarted, txCommitted, shadowHits uint64
}

// hitMiss counts one cache or TLB level's lookups.
type hitMiss struct{ hits, misses uint64 }

func (h *hitMiss) add(hits, misses uint64) { h.hits += hits; h.misses += misses }

func (h hitMiss) hitRatio() float64 { return ratio(float64(h.hits), float64(h.hits+h.misses)) }

func (h hitMiss) missRatio() float64 { return ratio(float64(h.misses), float64(h.hits+h.misses)) }

// rig is a machine assembled for a traced pass, or for a set-up timing.
type rig struct {
	cfg       config
	w         workload.Workload
	m         *cpu.Machine
	prof      *core.Profiler
	mover     *policy.Mover
	collapser *policy.Collapser
	inv       *invariant.Checker
	capacity  int
}

// setup builds everything a pass needs before its first reference:
// the workload, the machine, the profiler with every process
// registered, and for placement the mover, collapser and checker. It
// performs, call for call, what the public entry point does first.
func setup(s *spec, seed int64, refs int) (*rig, error) {
	w, cfg, err := s.build(seed, refs)
	if err != nil {
		return nil, err
	}
	rg := &rig{cfg: cfg, w: w}
	if cfg.prof != nil {
		r, err := sim.New(*cfg.prof, w)
		if err != nil {
			return nil, err
		}
		rg.m, rg.prof = r.Machine, r.Profiler
		if cfg.prof.Invariants {
			rg.inv = invariant.New()
		}
		return rg, nil
	}
	pc := cfg.place
	tiers := []mem.TierSpec(pc.Tiers)
	rg.capacity = int(w.FootprintBytes()>>mem.PageShift) / pc.Ratio
	if tiers == nil {
		tiers = mem.DefaultTiers(legacyTiers(w, pc.Ratio))
	} else {
		rg.capacity = max(pc.Tiers[0].Frames-mem.HugePages, 0)
	}
	rg.m, err = cpu.NewMachine(pc.CPU, tiers)
	if err != nil {
		return nil, err
	}
	if pc.Huge {
		rg.m.SetHugeHint(workload.HugeHintFor(w))
	}
	rg.prof, err = core.New(pc.TMP, rg.m, nil)
	if err != nil {
		return nil, err
	}
	for _, pid := range w.Processes() {
		rg.prof.Register(pid)
	}
	rg.mover = policy.NewMover(rg.m)
	rg.mover.Transactional = pc.TxMigration
	rg.mover.AdmissionBudgetNS = policy.AdmissionBudgetNS(pc.EpochNS, pc.AdmissionFrac)
	if pc.Invariants {
		rg.inv = invariant.New()
	}
	if pc.Khugepaged && pc.Huge {
		rg.collapser = policy.NewCollapser(rg.m)
	}
	return rg, nil
}

// runTraced is the traced pass: the same simulation as runPublic,
// driven through the layers' public functions with a span around each
// call. Its result must equal runPublic's for the same seed.
func runTraced(s *spec, seed int64, refs int, tr *tracer) (any, counts, error) {
	root := tr.begin("sim.run")
	sp := tr.begin("sim.setup")
	rg, err := setup(s, seed, refs)
	tr.end(sp)
	if err != nil {
		return nil, counts{}, err
	}
	var res any
	var c counts
	if rg.cfg.place != nil {
		res, c, err = rg.placement(tr)
	} else {
		res, c, err = rg.profile(tr)
	}
	tr.end(root)
	return res, c, err
}

// step runs one batch of the loop both entry points share: fill it,
// execute it (counting memory-served references the way the placement
// loop does), tick the profiler. It returns the machine clock.
func (rg *rig) step(tr *tracer, batch []trace.Ref, done int, c *counts) (int64, error) {
	sp := tr.begin("workload.fill")
	rg.w.Fill(batch)
	tr.end(sp)
	sp = tr.begin("cpu.execute")
	for i := range batch {
		o, err := rg.m.Execute(batch[i])
		if err != nil {
			tr.end(sp)
			return 0, fmt.Errorf("sim: executing ref %d: %w", done+i, err)
		}
		if o.Source.IsMemory() {
			c.memAccesses++
			if o.Source == trace.SrcTier1 {
				c.tier1Hits++
			}
		}
	}
	tr.end(sp)
	now := rg.m.Now()
	sp = tr.begin("core.tick")
	rg.prof.Tick(now)
	tr.end(sp)
	return now, nil
}

func (rg *rig) check(tr *tracer) error {
	if rg.inv == nil {
		return nil
	}
	sp := tr.begin("invariant.check")
	defer tr.end(sp)
	return rg.inv.Check(rg.m.Phys, rg.m.Tables(), rg.mover)
}

// placement mirrors sim.RunPlacement's loop for a policy arm without
// emulation, faults, telemetry or provenance.
func (rg *rig) placement(tr *tracer) (any, counts, error) {
	cfg := rg.cfg.place
	m, w := rg.m, rg.w
	var c counts
	res := sim.PlacementResult{
		Workload: w.Name(),
		Arm:      fmt.Sprintf("%s/%s", cfg.Policy.Name(), cfg.Method),
		NumCores: len(m.Cores()),
	}
	pids := w.Processes()
	buf := make([]trace.Ref, cfg.BatchSize)
	var ep core.EpochStats
	nextEpoch := cfg.EpochNS
	executed := 0
	for executed < cfg.TotalRefs {
		batch := buf[:min(cfg.BatchSize, cfg.TotalRefs-executed)]
		now, err := rg.step(tr, batch, executed, &c)
		if err != nil {
			return res, c, err
		}
		executed += len(batch)
		if now < nextEpoch {
			continue
		}
		sp := tr.begin("core.harvest")
		rg.prof.HarvestEpochInto(&ep)
		tr.end(sp)
		c.epochs++
		c.harvested += uint64(len(ep.Pages))
		method := rg.prof.EffectiveMethod(cfg.Method)
		sp = tr.begin("policy.select")
		sel := cfg.Policy.Select(ep, core.EpochStats{}, method, rg.capacity)
		tr.end(sp)
		c.selected += uint64(len(sel))
		sp = tr.begin("core.ranks")
		ranks := core.RanksOf(ep, method)
		tr.end(sp)
		sp = tr.begin("policy.mover")
		rg.mover.ApplySelection(sel, ranks)
		tr.end(sp)
		if rg.collapser != nil {
			sp = tr.begin("policy.collapse")
			c.collapses += uint64(rg.collapser.Collapse(pids, 2))
			tr.end(sp)
		}
		if err := rg.check(tr); err != nil {
			return res, c, fmt.Errorf("sim: placement epoch at %dns: %w", now, err)
		}
		for nextEpoch <= now {
			nextEpoch += cfg.EpochNS
		}
	}
	if err := rg.check(tr); err != nil {
		return res, c, fmt.Errorf("sim: final state: %w", err)
	}
	mv := rg.mover
	res.Refs = executed
	res.DurationNS = m.Now()
	res.MemAccesses, res.Tier1Hits = c.memAccesses, c.tier1Hits
	res.Promotions, res.Demotions = mv.Promotions, mv.Demotions
	res.Failed = mv.Failed
	res.FailedCapacity = mv.FailedCapacity
	res.FailedPinned = mv.FailedPinned
	res.FailedVanished = mv.FailedVanished
	res.FailedSplit = mv.FailedSplit
	res.Retried = mv.Retried
	res.RetrySucceeded = mv.RetrySucceeded
	res.RetrySuperseded = mv.RetrySuperseded
	res.RetryDropped = mv.RetryDropped
	res.TxStarted = mv.TxStarted
	res.TxCommitted = mv.TxCommitted
	res.AbortedDirty = mv.AbortedDirty
	res.ShadowHits = mv.ShadowHits
	res.ShadowStale = mv.ShadowStale
	res.AdmittedPromotions = mv.AdmittedPromotions
	res.AdmittedDemotions = mv.AdmittedDemotions
	res.DeferredAdmission = mv.DeferredAdmission
	res.RejectedPromotions = mv.RejectedPromotions
	res.RejectedDemotions = mv.RejectedDemotions
	res.Quarantined = rg.prof.QuarantinedMechanisms()
	res.FaultsInjected = cfg.Faults.TotalInjected()
	rg.finish(&c, executed)
	return res, c, nil
}

// profile mirrors sim.Runner.Run without hooks.
func (rg *rig) profile(tr *tracer) (any, counts, error) {
	cfg := rg.cfg.prof
	m, w := rg.m, rg.w
	var c counts
	res := sim.Result{Workload: w.Name()}
	harvest := func() core.EpochStats {
		sp := tr.begin("core.harvest")
		ep := rg.prof.HarvestEpoch()
		tr.end(sp)
		c.epochs++
		c.harvested += uint64(len(ep.Pages))
		return ep
	}
	buf := make([]trace.Ref, cfg.BatchSize)
	nextEpoch := cfg.EpochNS
	executed := 0
	for executed < cfg.TotalRefs {
		batch := buf[:min(cfg.BatchSize, cfg.TotalRefs-executed)]
		now, err := rg.step(tr, batch, executed, &c)
		if err != nil {
			return res, c, err
		}
		executed += len(batch)
		for now >= nextEpoch {
			res.Epochs = append(res.Epochs, harvest())
			if err := rg.check(tr); err != nil {
				return res, c, fmt.Errorf("sim: epoch %d: %w", len(res.Epochs)-1, err)
			}
			nextEpoch += cfg.EpochNS
		}
	}
	if ep := harvest(); len(ep.Pages) > 0 {
		res.Epochs = append(res.Epochs, ep)
	}
	if err := rg.check(tr); err != nil {
		return res, c, fmt.Errorf("sim: final epoch: %w", err)
	}
	res.Refs = executed
	res.DurationNS = m.Now()
	res.NumCores = len(m.Cores())
	res.IBSOverheadNS, res.AbitOverheadNS, res.HWPCOverheadNS = rg.prof.OverheadNS()
	res.MinorFaults = m.MinorFaults
	res.HugeFaults = m.HugeFaults
	res.Quarantined = rg.prof.QuarantinedMechanisms()
	rg.finish(&c, executed)
	return res, c, nil
}

// finish reads the layers' counters after a pass of refs references.
func (rg *rig) finish(c *counts, refs int) {
	m := rg.m
	c.refs, c.durationNS, c.cores = refs, m.Now(), len(m.Cores())
	c.ibsNS, c.abitNS, c.hwpcNS = rg.prof.OverheadNS()
	for _, core := range m.Cores() {
		t1, t2 := core.TLB.L1Stats(), core.TLB.L2Stats()
		c.tlbL1.add(t1.Hits, t1.Misses)
		c.tlbL2.add(t2.Hits, t2.Misses)
		l1, l2 := core.Cache.L1Stats(), core.Cache.L2Stats()
		c.l1.add(l1.Hits, l1.Misses)
		c.l2.add(l2.Hits, l2.Misses)
		c.prefetchHits += l1.PrefetchHits + l2.PrefetchHits
		c.ctxSwitches += core.CtxSwitches
	}
	llc := m.LLC.Stats()
	c.llc.add(llc.Hits, llc.Misses)
	c.prefetchHits += llc.PrefetchHits
	c.minorFaults, c.hugeFaults = m.MinorFaults, m.HugeFaults
	if mv := rg.mover; mv != nil {
		c.migrations = mv.Promotions + mv.Demotions
		c.moveFailed, c.txStarted, c.txCommitted, c.shadowHits = mv.Failed, mv.TxStarted, mv.TxCommitted, mv.ShadowHits
	}
}
