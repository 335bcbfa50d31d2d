package main

import (
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestParseFileColumns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	text := "goos: linux\n" +
		"BenchmarkNewPhysMem-2      \t     825\t   1473770 ns/op\t 8520048 B/op\t       5 allocs/op\n" +
		"BenchmarkNewPhysMem-2      \t     691\t   1790767 ns/op\t 8520048 B/op\t       5 allocs/op\n" +
		"BenchmarkTopK-2            \t      10\t      2000 ns/op\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := got["BenchmarkNewPhysMem"]; r != (result{nsPerOp: 1473770, bytes: 8520048, allocs: 5}) {
		t.Errorf("NewPhysMem = %+v, want the fastest run with its B/op and allocs/op", r)
	}
	if r := got["BenchmarkTopK"]; r != (result{nsPerOp: 2000, bytes: -1, allocs: -1}) {
		t.Errorf("TopK = %+v, want -1 for the missing -benchmem columns", r)
	}
}

func TestCompareGuards(t *testing.T) {
	allocsRE := regexp.MustCompile("InvariantCheck")
	base := map[string]result{
		"BenchmarkNewPhysMem":     {nsPerOp: 100, bytes: 1000, allocs: 5},
		"BenchmarkInvariantCheck": {nsPerOp: 100, bytes: 0, allocs: 0},
		"BenchmarkTopK":           {nsPerOp: 100, bytes: 10, allocs: 1},
	}
	with := func(name string, r result) map[string]result {
		m := maps.Clone(base)
		m[name] = r
		return m
	}
	for _, tc := range []struct {
		name string
		cur  map[string]result
		fail bool
	}{
		{"unchanged", base, false},
		{"slower only", with("BenchmarkNewPhysMem", result{nsPerOp: 900, bytes: 1000, allocs: 5}), false},
		{"set-up bytes shrink", with("BenchmarkNewPhysMem", result{nsPerOp: 100, bytes: 500, allocs: 5}), false},
		{"set-up bytes grow", with("BenchmarkNewPhysMem", result{nsPerOp: 100, bytes: 1001, allocs: 5}), true},
		{"guarded allocs grow", with("BenchmarkInvariantCheck", result{nsPerOp: 100, bytes: 0, allocs: 1}), true},
		{"unguarded bytes and allocs grow", with("BenchmarkTopK", result{nsPerOp: 100, bytes: 99, allocs: 9}), false},
		{"new benchmark", with("BenchmarkResetEpochAll", result{nsPerOp: 1, bytes: 1 << 20, allocs: 3}), false},
	} {
		if got := compare(io.Discard, base, tc.cur, allocsRE, bytesGuard); got != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
}
