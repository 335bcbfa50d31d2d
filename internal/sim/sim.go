// Package sim wires the simulated machine, a workload, and the TMP
// profiler into a runnable experiment: it drives references through
// the cores, ticks the profiler daemon, cuts epochs at virtual-time
// horizons, and collects the per-epoch harvests every figure and table
// in the evaluation is computed from.
package sim

import (
	"fmt"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/fault/invariant"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/trace"
	"tieredmem/internal/workload"
)

// Config assembles a run.
type Config struct {
	CPU cpu.Config
	// Tiers sizes physical memory; when nil, New sizes a fast tier
	// holding the whole footprint (profiling-only runs).
	Tiers []mem.TierSpec
	TMP   core.Config
	// EpochNS is the placement epoch (the paper uses 1 virtual
	// second).
	EpochNS int64
	// TotalRefs bounds the run.
	TotalRefs int
	// BatchSize is how many references execute between daemon ticks.
	BatchSize int
	// Huge enables THP backing for the workload's huge regions.
	Huge bool
	// Usage supplies per-PID resource shares to the TMP daemon's
	// process filter; nil profiles every registered process.
	Usage core.UsageFunc
	// Tracer, when non-nil, records structured telemetry for the run
	// (events, counters). Telemetry is inert: results are byte-identical
	// with or without it.
	Tracer *telemetry.Tracer
	// Faults, when non-nil, is the run's fault-injection plane (one
	// plane per run, like Tracer). A nil plane — and a plane whose
	// spec is all zero — is inert: results are byte-identical to an
	// unfaulted run (see TestFaultPlaneInertEndToEnd).
	Faults *fault.Plane
	// Invariants asserts the epoch invariant checker after every
	// harvest; it is forced on whenever Faults can inject.
	Invariants bool
}

// ScaledSecond is the laptop-scale equivalent of one testbed second:
// every interval in the paper (1 s epochs, 1 s A-bit scans, 1 s
// process-filter re-evaluation, 100 ms HWPC windows) is scaled by the
// same factor so their ratios — the only thing the evaluation depends
// on — are preserved while runs finish in seconds of real time.
const ScaledSecond = int64(1_000_000) // 1 virtual ms

// DefaultConfig returns a profiling-run configuration for a workload:
// IBS base period scaled for multi-million-reference streams,
// scaled-second epochs, THP on.
func DefaultConfig(w workload.Workload, ibsPeriod int, totalRefs int) Config {
	cpuCfg, tmp := scaledDefaults(ibsPeriod)
	return Config{
		CPU:       cpuCfg,
		Tiers:     profilingTiers(w),
		TMP:       tmp,
		EpochNS:   ScaledSecond,
		TotalRefs: totalRefs,
		BatchSize: 1024,
		Huge:      true,
	}
}

// scaledDefaults returns the CPU and TMP defaults with every interval
// in ScaledSecond units (see ScaledSecond).
func scaledDefaults(ibsPeriod int) (cpu.Config, core.Config) {
	cpuCfg := cpu.DefaultConfig()
	cpuCfg.SoftCostDiv = 1_000_000_000 / ScaledSecond
	tmp := core.DefaultConfig(ibsPeriod)
	tmp.Abit.Interval = ScaledSecond
	tmp.FilterInterval = ScaledSecond
	tmp.HWPC.Window = ScaledSecond / 10
	return cpuCfg, tmp
}

// profilingTiers sizes a profiling run's machine: a fast tier big
// enough for the whole footprint plus slack, since profiling runs
// measure detection, not placement.
func profilingTiers(w workload.Workload) []mem.TierSpec {
	footPages := int(w.FootprintBytes() >> mem.PageShift)
	return mem.DefaultTiers(footPages+footPages/4+mem.HugePages, footPages/2+mem.HugePages)
}

// Hooks observe a run.
type Hooks struct {
	// OnOutcome sees every completed reference (ground truth for
	// heatmaps). The pointer is reused; copy what you keep.
	OnOutcome func(o *trace.Outcome)
	// OnEpoch sees each harvested epoch in order.
	OnEpoch func(ep core.EpochStats)
}

// Result summarizes a run.
type Result struct {
	Workload   string
	Epochs     []core.EpochStats
	Refs       int
	DurationNS int64
	NumCores   int
	// Overheads per mechanism (virtual ns charged).
	IBSOverheadNS  int64
	AbitOverheadNS int64
	HWPCOverheadNS int64
	MinorFaults    uint64
	HugeFaults     uint64
	// Quarantined lists monitoring mechanisms the profiler
	// permanently disabled for excessive injected-fault rates, in
	// fixed (ibs, abit, hwpc) order. Empty without fault injection.
	Quarantined []string
}

// OverheadFraction returns total profiling overhead as a fraction of
// aggregate CPU time (the §VI-B "workload overhead as a percentage of
// application overhead" metric): overhead cycles are spread across
// cores, so they are normalized by duration x cores.
func (r Result) OverheadFraction() float64 {
	if r.DurationNS == 0 || r.NumCores == 0 {
		return 0
	}
	return float64(r.IBSOverheadNS+r.AbitOverheadNS+r.HWPCOverheadNS) /
		(float64(r.DurationNS) * float64(r.NumCores))
}

// Runner is one assembled experiment. Both entry points run on it:
// Run collects a harvest at each epoch, RunPlacement places pages.
// They share the machine assembly and the batch loop (drive), and
// differ only in their epoch action and result assembly.
type Runner struct {
	Machine  *cpu.Machine
	Profiler *core.Profiler
	Workload workload.Workload
	cfg      Config
	// inv asserts the epoch invariants; nil when they are off.
	inv *invariant.Checker
}

// New assembles a runner.
func New(cfg Config, w workload.Workload) (*Runner, error) {
	if cfg.EpochNS <= 0 {
		cfg.EpochNS = 1_000_000_000
	}
	if cfg.Tiers == nil {
		cfg.Tiers = profilingTiers(w)
	}
	return assemble(cfg, w, true)
}

// assemble builds a run's machine: tiers and huge hint, the profiler
// with every process registered (none when profile is false — the
// first-touch placement arm), tracer and fault-plane wiring, and the
// invariant checker.
func assemble(cfg Config, w workload.Workload, profile bool) (*Runner, error) {
	if cfg.TotalRefs <= 0 {
		return nil, fmt.Errorf("sim: TotalRefs %d must be positive", cfg.TotalRefs)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1024
	}
	m, err := cpu.NewMachine(cfg.CPU, cfg.Tiers)
	if err != nil {
		return nil, err
	}
	if cfg.Huge {
		m.SetHugeHint(workload.HugeHintFor(w))
	}
	r := &Runner{Machine: m, Workload: w, cfg: cfg}
	if profile {
		if r.Profiler, err = core.New(cfg.TMP, m, cfg.Usage); err != nil {
			return nil, err
		}
		for _, pid := range w.Processes() {
			r.Profiler.Register(pid)
		}
	}
	if cfg.Tracer.Enabled() {
		m.Phys.SetTracer(cfg.Tracer)
		if profile {
			r.Profiler.SetTracer(cfg.Tracer)
		}
	}
	if cfg.Faults != nil {
		m.Phys.SetFaultPlane(cfg.Faults)
		if profile {
			r.Profiler.SetFaultPlane(cfg.Faults)
		}
		if cfg.Tracer.Enabled() {
			cfg.Faults.SetTracer(cfg.Tracer)
		}
	}
	// Under fault injection (or on request) every epoch must leave the
	// machine conserved: no frame lost or duplicated, every mapping
	// backed, mover counters consistent.
	if cfg.Invariants || cfg.Faults.Enabled() {
		r.inv = invariant.New()
	}
	return r, nil
}

// check asserts the invariant checker (and the mover's accounting,
// when mv is non-nil). It only reads, so checked runs are
// byte-identical to unchecked ones.
func (r *Runner) check(mv *policy.Mover) error {
	if r.inv == nil {
		return nil
	}
	return r.inv.Check(r.Machine.Phys, r.Machine.Tables(), mv)
}

// loopStats totals a batch loop: references executed, and how many of
// them memory served, tier 1 among them.
type loopStats struct {
	refs        int
	memAccesses uint64
	tier1Hits   uint64
}

// drive is the one batch loop: fill a batch from the workload, execute
// it, tick, and run epoch at every virtual-time horizon the batch
// crossed — once per horizon, or with coalesce once per batch however
// many elapsed (migration work advances the clock, and re-running
// placement on empty harvests would thrash). onOutcome, when non-nil,
// sees every completed reference.
func (r *Runner) drive(onOutcome func(o *trace.Outcome), tick func(now int64), coalesce bool, epoch func(now int64) error) (loopStats, error) {
	m, w, cfg := r.Machine, r.Workload, &r.cfg
	var ls loopStats
	buf := make([]trace.Ref, cfg.BatchSize)
	nextEpoch := cfg.EpochNS
	for ls.refs < cfg.TotalRefs {
		batch := buf[:min(cfg.BatchSize, cfg.TotalRefs-ls.refs)]
		w.Fill(batch)
		for i := range batch {
			o, err := m.Execute(batch[i])
			if err != nil {
				return ls, fmt.Errorf("sim: executing ref %d: %w", ls.refs+i, err)
			}
			if o.Source.IsMemory() {
				ls.memAccesses++
				if o.Source == trace.SrcTier1 {
					ls.tier1Hits++
				}
			}
			if onOutcome != nil {
				onOutcome(o)
			}
		}
		ls.refs += len(batch)
		now := m.Now()
		tick(now)
		for now >= nextEpoch {
			if err := epoch(now); err != nil {
				return ls, err
			}
			nextEpoch += cfg.EpochNS
			for coalesce && nextEpoch <= now {
				nextEpoch += cfg.EpochNS
			}
		}
	}
	return ls, nil
}

// Run executes the configured number of references, harvesting epochs
// at virtual-time horizons (plus a final partial epoch), and returns
// the collected result.
func (r *Runner) Run(hooks Hooks) (Result, error) {
	res := Result{Workload: r.Workload.Name()}
	deliver := func(ep core.EpochStats) {
		res.Epochs = append(res.Epochs, ep)
		if hooks.OnEpoch != nil {
			hooks.OnEpoch(ep)
		}
	}
	ls, err := r.drive(hooks.OnOutcome, r.Profiler.Tick, false, func(int64) error {
		deliver(r.Profiler.HarvestEpoch())
		if err := r.check(nil); err != nil {
			return fmt.Errorf("sim: epoch %d: %w", len(res.Epochs)-1, err)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	// Final partial epoch.
	if ep := r.Profiler.HarvestEpoch(); len(ep.Pages) > 0 {
		deliver(ep)
	}
	if err := r.check(nil); err != nil {
		return res, fmt.Errorf("sim: final epoch: %w", err)
	}
	res.Refs = ls.refs
	res.DurationNS = r.Machine.Now()
	res.NumCores = len(r.Machine.Cores())
	res.IBSOverheadNS, res.AbitOverheadNS, res.HWPCOverheadNS = r.Profiler.OverheadNS()
	res.MinorFaults = r.Machine.MinorFaults
	res.HugeFaults = r.Machine.HugeFaults
	res.Quarantined = r.Profiler.QuarantinedMechanisms()
	return res, nil
}
