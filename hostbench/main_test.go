package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/sim"
)

// tinyRefs is enough references for a few epoch cuts on every workload.
const tinyRefs = 200_000

func tiny(s *spec, traced bool) bench {
	return bench{spec: s, seed: 7, refs: tinyRefs, traced: traced}
}

// TestTracedMatchesUntraced is the equality gate at a tiny size: two
// public-entry passes agree, and the traced replica returns exactly
// their result.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			want, err := runPublic(s, 7, tinyRefs)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkResult(want, tinyRefs); err != nil {
				t.Fatal(err)
			}
			again, err := runPublic(s, 7, tinyRefs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, again) {
				t.Fatal("two untraced passes differ")
			}
			got, c, err := runTraced(s, 7, tinyRefs, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("traced pass differs from untraced:\n got %+v\nwant %+v", got, want)
			}
			if c.epochs < 2 {
				t.Fatalf("%d epochs; tinyRefs must reach the epoch cut", c.epochs)
			}
		})
	}
}

// TestGateCatchesDrift perturbs one counter deep in a result and
// checks the gate fails the pass.
func TestGateCatchesDrift(t *testing.T) {
	for _, s := range specs {
		want, err := runPublic(s, 7, tinyRefs)
		if err != nil {
			t.Fatal(err)
		}
		var bad any
		switch v := want.(type) {
		case sim.PlacementResult:
			v.Promotions++
			bad = v
		case sim.Result:
			// Copy before perturbing: want shares the backing arrays.
			eps := append([]core.EpochStats(nil), v.Epochs...)
			eps[0].Pages = append([]core.PageStat(nil), eps[0].Pages...)
			eps[0].Pages[0].Trace++
			v.Epochs = eps
			bad = v
		}
		var r report
		if r.gate("pass", want, bad, nil) || r.failed != 1 || r.attempted != 1 {
			t.Errorf("%s: gate passed a perturbed result (failed=%d attempted=%d)", s.name, r.failed, r.attempted)
		}
		if !r.gate("pass", want, want, nil) {
			t.Errorf("%s: gate failed an identical result", s.name)
		}
	}
}

// TestEveryMetricEmitted runs each workload in both modes and checks
// that each named metric is present with its unit, and nothing else.
func TestEveryMetricEmitted(t *testing.T) {
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			b := tiny(s, traced)
			res := b.measure().result(b)
			if !res.Correct || res.Failed != 0 || res.Attempted < minPasses {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", s.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(b.defs()) {
				t.Errorf("%s traced=%v: %d metrics, want %d", s.name, traced, len(res.Metrics), len(b.defs()))
			}
			for _, d := range b.defs() {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", s.name, traced, d.name, m, d.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestSelfTimesAddUp checks the coverage rule: the self times of all
// spans plus the unattributed row equal the traced wall time, and the
// layers that must run on each workload did.
func TestSelfTimesAddUp(t *testing.T) {
	for _, s := range specs {
		tr := newTracer()
		if _, _, err := runTraced(s, 7, tinyRefs, tr); err != nil {
			t.Fatal(err)
		}
		lt, err := tr.table()
		if err != nil {
			t.Fatal(err)
		}
		root := tr.spans[0]
		if root.name != "sim.run" || lt.wallNS != root.end-root.start {
			t.Fatalf("%s: wall %d, root span %+v", s.name, lt.wallNS, root)
		}
		sum := lt.unattributedNS()
		for _, r := range lt.rows[1:] {
			if r.selfNS < 0 {
				t.Errorf("%s: %s self time %d < 0", s.name, r.name, r.selfNS)
			}
			sum += r.selfNS
		}
		if sum != lt.wallNS {
			t.Errorf("%s: self times + unattributed = %d, traced wall = %d", s.name, sum, lt.wallNS)
		}
		for _, n := range []string{"sim.setup", "workload.fill", "cpu.execute", "core.tick", "core.harvest"} {
			if lt.row(n).calls == 0 {
				t.Errorf("%s: no %s span", s.name, n)
			}
		}
		policyCalls := lt.row("policy.select").calls + lt.row("policy.mover").calls + lt.row("policy.collapse").calls
		if s.placement != (policyCalls > 0) {
			t.Errorf("%s: %d policy spans, placement=%v", s.name, policyCalls, s.placement)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and hostbench
// naming the same workloads and metrics with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, hostbench %v", names, want)
	}
	for _, c := range []struct {
		key  string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json %s = %v, hostbench emits %v", c.key, got, c.defs)
		}
	}
}

// TestRunOutput drives the command line: the last stdout line is the
// result object, and the manifest lands in --out.
func TestRunOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-size pass")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "gups-place", "--seed", "3", "--seconds", "0", "--trace", "1", "--out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	if !strings.Contains(stderr.String(), "\nunattributed ") {
		t.Errorf("layer table has no unattributed row:\n%s", stderr.String())
	}
	for _, f := range []string{"gups-place-seed3-trace1.json", "gups-place-seed3-trace1.trace.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "gups-place", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
