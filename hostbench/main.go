// Command hostbench is the repository's benchmark: how fast the
// simulator turns simulated references into results on the host, end
// to end and layer by layer.
//
// Usage (from the repository root; run.sh builds the program first):
//
//	bash hostbench/run.sh --workload gups-place --seed 1 --seconds 10 --trace 0
//
// One invocation runs one workload (see workloads.go) on one
// simulation goroutine. An untraced phase times the simulator's public
// entry point (sim.RunPlacement, or sim.New + Runner.Run) from outside,
// pass after pass, for the given seconds; a traced phase replays the
// same simulation through each layer's public functions with a span
// around every call. With --trace 0 the last stdout line carries the
// end-to-end metrics, with --trace 1 the per-layer ones. Every pass
// must return exactly the first pass's result; any difference or error
// marks the run incorrect.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"tieredmem/internal/sim"
)

// minPasses is the fewest timed passes a phase makes, however short
// --seconds is, so every median has several samples.
const minPasses = 3

// Set-up takes milliseconds, so setup_s is the median of many timings:
// at least minSetups, for setupSeconds of host time.
const (
	minSetups    = 31
	setupSeconds = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: gups-place, dcache-tx3 or xsbench-prof")
	seed := fs.Int64("seed", 1, "workload seed; the reference stream is built from it alone")
	seconds := fs.Float64("seconds", 10, "host seconds the measured phase runs")
	traced := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of the traced pass")
	out := fs.String("out", ".bench_out", "directory for the run manifest and the host-time span trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := lookup(*name)
	if err != nil || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		if err == nil {
			err = fmt.Errorf("--trace must be 0 or 1, and no positional arguments are taken")
		}
		fmt.Fprintln(stderr, "hostbench:", err)
		fs.Usage()
		return 2
	}
	// One P: the simulation is one goroutine, and the garbage collector
	// then shares its thread instead of depending on a second free CPU.
	runtime.GOMAXPROCS(1)

	b := bench{spec: s, seed: *seed, refs: s.refs, seconds: *seconds, traced: *traced == 1}
	rep := b.measure()
	res := rep.result(b)
	man := b.manifest()

	fmt.Fprintf(stderr, "hostbench: %s seed=%d refs=%d passes=%d failed=%d (%s, go %s, GOMAXPROCS=%d, nproc=%d, %s, commit %s)\n",
		s.name, b.seed, b.refs, rep.attempted, rep.failed, man.Flags, man.GoVersion, man.GOMAXPROCS, man.NProc, man.CPUModel, man.Commit)
	if n := len(rep.wallNS); n > 0 {
		w := append([]int64(nil), rep.wallNS...)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		fmt.Fprintf(stderr, "hostbench: %d untraced passes, wall ms min %.1f median %.1f max %.1f\n",
			n, float64(w[0])/1e6, median(w)/1e6, float64(w[n-1])/1e6)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "hostbench: FAIL:", e)
	}
	for _, d := range b.defs() {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(stderr, "  %-28s %16.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	if rep.table != nil {
		fmt.Fprint(stderr, rep.table.render(fmt.Sprintf("host time by layer: %s (traced pass, wall %.3f ms)", s.name, float64(rep.table.wallNS)/1e6)))
	}
	if err := rep.write(*out, b, man, res); err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one invocation's settings.
type bench struct {
	spec    *spec
	seed    int64
	refs    int
	seconds float64
	traced  bool
}

func (b bench) defs() []metricDef {
	if b.traced {
		return perLayer
	}
	return endToEnd
}

// tracedPass is one traced pass's host time and layer counters.
type tracedPass struct {
	tr     *tracer
	table  layerTable
	counts counts
}

// report collects what one invocation measured.
type report struct {
	attempted, failed int
	errs              []string
	wallNS            []int64  // untraced passes
	allocBytes        []uint64 // untraced passes
	setupNS           []int64
	rssMiB            float64
	traced            []tracedPass
	counts            *counts     // from a traced pass: simulated and layer counts
	table             *layerTable // the median traced pass's
	tr                *tracer     // the median traced pass's spans
}

// fail counts a failed pass.
func (r *report) fail(format string, a ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}

// gate checks one pass's result against the run's first result.
func (r *report) gate(what string, want, got any, err error) bool {
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s: %v", what, err)
	case !reflect.DeepEqual(want, got):
		r.fail("%s: result differs from the first untraced pass", what)
	default:
		return true
	}
	return false
}

func (b bench) measure() *report {
	r := &report{}
	s := b.spec
	// The first pass warms the heap and the caches; its result is what
	// every later pass must reproduce exactly.
	r.attempted++
	want, err := runPublic(s, b.seed, b.refs)
	if err == nil {
		err = checkResult(want, b.refs)
	}
	if err != nil {
		r.fail("untraced pass 1: %v", err)
		return r
	}
	budget := time.Duration(b.seconds * float64(time.Second))
	if b.traced {
		budget /= 2
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		runtime.GC()
		a0 := heapAllocBytes()
		t0 := time.Now()
		got, err := runPublic(s, b.seed, b.refs)
		wall := time.Since(t0)
		a1 := heapAllocBytes()
		if r.gate(fmt.Sprintf("untraced pass %d", i+2), want, got, err) {
			r.wallNS = append(r.wallNS, int64(wall))
			r.allocBytes = append(r.allocBytes, a1-a0)
		}
	}
	r.rssMiB = peakRSSMiB()

	if !b.traced {
		deadline := time.Now().Add(setupSeconds * time.Second)
		for i := 0; i < minSetups || time.Now().Before(deadline); i++ {
			runtime.GC()
			t0 := time.Now()
			_, err := setup(s, b.seed, b.refs)
			d := time.Since(t0)
			r.attempted++
			if err != nil {
				r.fail("set-up %d: %v", i+1, err)
				continue
			}
			r.setupNS = append(r.setupNS, int64(d))
		}
	}

	// The traced phase: one pass gates the replica against the public
	// entry point; with --trace 1 it runs for the other half of the
	// budget and the pass with the median wall time is reported.
	deadline = time.Now().Add(budget)
	for i := 0; i < 1 || (b.traced && (i < minPasses || time.Now().Before(deadline))); i++ {
		runtime.GC()
		tr := newTracer()
		got, c, err := runTraced(s, b.seed, b.refs, tr)
		if !r.gate(fmt.Sprintf("traced pass %d", i+1), want, got, err) {
			continue
		}
		lt, err := tr.table()
		if err != nil {
			r.fail("traced pass %d: %v", i+1, err)
			continue
		}
		r.traced = append(r.traced, tracedPass{tr: tr, table: lt, counts: c})
	}
	if len(r.traced) > 0 {
		sort.Slice(r.traced, func(i, j int) bool { return r.traced[i].table.wallNS < r.traced[j].table.wallNS })
		tp := r.traced[len(r.traced)/2]
		r.counts, r.table, r.tr = &tp.counts, &tp.table, tp.tr
	}
	return r
}

// checkResult holds a result to what must be true of any pass,
// whatever the seed.
func checkResult(res any, refs int) error {
	var got int
	switch v := res.(type) {
	case sim.PlacementResult:
		got = v.Refs
		if h := v.Hitrate(); !(h > 0 && h <= 1) {
			return fmt.Errorf("tier-1 hit rate %v outside (0, 1]", h)
		}
	case sim.Result:
		got = v.Refs
		if f := v.OverheadFraction(); !(f > 0 && f < 1) {
			return fmt.Errorf("profiling overhead fraction %v outside (0, 1)", f)
		}
	default:
		return fmt.Errorf("unexpected result type %T", res)
	}
	if got != refs {
		return fmt.Errorf("ran %d references, want %d", got, refs)
	}
	return nil
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result(b bench) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.counts == nil || len(r.wallNS) == 0 || (!b.traced && len(r.setupNS) == 0) {
		res.Correct = false
		return res
	}
	var vals map[string]float64
	if b.traced {
		vals = r.perLayer()
	} else {
		vals = r.endToEnd(b)
	}
	for _, d := range b.defs() {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// manifest records what a run was.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Refs       int     `json:"refs_per_pass"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Flags      string  `json:"flags"`
	TierChain  string  `json:"tier_chain"`
	Invariants bool    `json:"invariants"`
	Shards     int     `json:"shards"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Model      string  `json:"model"`
}

func (b bench) manifest() manifest {
	m := manifest{
		Workload:   b.spec.name,
		Seed:       b.seed,
		Refs:       b.refs,
		Seconds:    b.seconds,
		Trace:      b.traced,
		Flags:      fmt.Sprintf("%s -seed %d -refs %d -shards 0", b.spec.flags, b.seed, b.refs),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Model:      "unvalidated against hardware; no error figure is reported",
	}
	if b.spec.placement {
		m.Flags += " (policy arm only)"
	}
	if w, cfg, err := b.spec.build(b.seed, b.refs); err == nil {
		m.TierChain = cfg.tierChain(w)
		m.Invariants = cfg.invariants()
	}
	return m
}

// write saves the manifest, the result and the layer table under dir,
// and with --trace 1 the spans as a Chrome trace.
func (r *report) write(dir string, b bench, man manifest, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if b.traced {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", b.spec.name, b.seed, trace))
	type row struct {
		Span   string  `json:"span"`
		Calls  int     `json:"calls"`
		SelfNS int64   `json:"self_ns"`
		Share  float64 `json:"share"`
	}
	var rows []row
	if r.table != nil {
		for _, lr := range r.table.rows[1:] {
			rows = append(rows, row{lr.name, lr.calls, lr.selfNS, r.table.share(lr.selfNS)})
		}
		u := r.table.unattributedNS()
		rows = append(rows, row{"unattributed", 1, u, r.table.share(u)})
	}
	if err := writeJSON(base+".json", struct {
		Manifest manifest `json:"manifest"`
		Result   result   `json:"result"`
		Errors   []string `json:"errors,omitempty"`
		Layers   []row    `json:"layers,omitempty"`
	}{man, res, r.errs, rows}); err != nil {
		return err
	}
	if !b.traced || r.tr == nil {
		return nil
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := r.tr.writeChrome(bw, man); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB is the process's ru_maxrss (KiB on Linux) in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the go tool stamped into the binary, or
// "unknown" when the sources were not a checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
