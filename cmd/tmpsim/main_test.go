package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestFaultsUnknownSiteIsUsageError pins the CLI contract for a typo'd
// -faults site: the error must name the valid sites (so the user can
// fix the spec without reading source), print usage, and exit 2 — the
// same shape the flag package gives an unknown flag. The test re-execs
// itself as the CLI via an env guard.
func TestFaultsUnknownSiteIsUsageError(t *testing.T) {
	if os.Getenv("TMPSIM_RUN_MAIN") == "1" {
		os.Args = []string{"tmpsim", "-faults", "bogus.site=1"}
		main()
		return // unreachable: usageFatal exits
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestFaultsUnknownSiteIsUsageError")
	cmd.Env = append(os.Environ(), "TMPSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\noutput:\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("exit code %d, want 2 (usage error)\noutput:\n%s", code, out)
	}
	text := string(out)
	for _, want := range []string{
		"unknown site",
		"bogus.site",
		"known:",        // the error lists every valid site name
		"mem.copyabort", // including the transactional-migration sites
		"mem.shadowstale",
		"Usage of",
		"-faults",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("usage output missing %q:\n%s", want, text)
		}
	}
}

// TestTiersOverMaxRejected pins the -tiers bound: a chain deeper than
// mem.MaxTiers (a TierID is one byte) fails before any run starts, with
// an error naming the limit.
func TestTiersOverMaxRejected(t *testing.T) {
	if os.Getenv("TMPSIM_RUN_MAIN") == "1" {
		os.Args = []string{"tmpsim", "-tiers", strings.Repeat("dram:1/", 256) + "nvm:1"}
		main()
		return // unreachable: fatal exits
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestTiersOverMaxRejected")
	cmd.Env = append(os.Environ(), "TMPSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\noutput:\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit code %d, want 1\noutput:\n%s", code, out)
	}
	if !strings.Contains(string(out), "chain has 257 tiers: mem: more than 256 tiers") {
		t.Errorf("output does not name the tier bound:\n%s", out)
	}
}
