package mem

import (
	"errors"
	"strings"
	"testing"
)

func TestParseTierChainPresets(t *testing.T) {
	c, err := ParseTierChain("dram:1024/cxl:2048/nvm:8192")
	if err != nil {
		t.Fatalf("ParseTierChain: %v", err)
	}
	if len(c) != 3 {
		t.Fatalf("got %d tiers, want 3", len(c))
	}
	want := []TierSpec{
		{Name: "dram", Frames: 1024, ReadLatency: 80, WriteLatency: 80},
		{Name: "cxl", Frames: 2048, ReadLatency: 140, WriteLatency: 180, Device: true},
		{Name: "nvm", Frames: 8192, ReadLatency: 320, WriteLatency: 640},
	}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("tier %d = %+v, want %+v", i, c[i], want[i])
		}
	}
	if !c.HasDevice() {
		t.Error("chain with a cxl tier reports no device")
	}
}

func TestParseTierChainExplicitAndDev(t *testing.T) {
	c, err := ParseTierChain("fast:512:10:20/slow:4096:100:200:dev")
	if err != nil {
		t.Fatalf("ParseTierChain: %v", err)
	}
	if c[0].Device || !c[1].Device {
		t.Errorf("device flags wrong: %+v", c)
	}
	if c[1].ReadLatency != 100 || c[1].WriteLatency != 200 {
		t.Errorf("explicit latencies lost: %+v", c[1])
	}
}

func TestParseTierChainErrors(t *testing.T) {
	cases := []string{
		"",                      // empty
		"dram:1024",             // single tier: not a hierarchy
		"dram:0/nvm:100",        // zero capacity
		"dram:-5/nvm:100",       // negative capacity
		"dram/nvm:100",          // missing frames
		"dram:10:80/nvm:100",    // read without write
		"foo:10/nvm:100",        // unknown media without latencies
		"dram:10:0:80/nvm:100",  // zero latency
		"dram:ten/nvm:100",      // junk frames
		"dram:10:a:b/nvm:100",   // junk latencies
		"dram:10/nvm:100/",      // trailing separator (empty tier)
		"dram:10:80:80:devx/x",  // junk trailing marker field count
		"dram:10//nvm:100",      // empty middle tier
		":10/nvm:100",           // empty name
		"dram:10/nvm:100:1:2:3", // too many fields
	}
	for _, spec := range cases {
		if _, err := ParseTierChain(spec); err == nil {
			t.Errorf("ParseTierChain(%q) = nil error, want failure", spec)
		} else if !errors.Is(err, ErrBadChain) {
			t.Errorf("ParseTierChain(%q) error %v does not wrap ErrBadChain", spec, err)
		}
	}
}

func TestTierChainRoundTrip(t *testing.T) {
	specs := []string{
		"dram:1024/nvm:8192",
		"dram:1024/cxl:2048/nvm:8192",
		"dram:64/cxl:128/nvm:256/ssd:4096",
		"fast:512:10:20/slow:4096:100:200:dev",
	}
	for _, spec := range specs {
		c, err := ParseTierChain(spec)
		if err != nil {
			t.Fatalf("ParseTierChain(%q): %v", spec, err)
		}
		again, err := ParseTierChain(c.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", c.String(), err)
		}
		if c.String() != again.String() {
			t.Errorf("round-trip drift: %q -> %q", c.String(), again.String())
		}
		for i := range c {
			if c[i] != again[i] {
				t.Errorf("spec %q tier %d: %+v != %+v", spec, i, c[i], again[i])
			}
		}
	}
}

// TestDefaultTiersIsAChain pins that the legacy two-tier layout is
// expressible as a chain: the differential contract's config-level
// half.
func TestDefaultTiersIsAChain(t *testing.T) {
	legacy := DefaultTiers(1024, 8192)
	c, err := ParseTierChain("dram:1024/nvm:8192")
	if err != nil {
		t.Fatal(err)
	}
	for i := range legacy {
		if legacy[i] != c[i] {
			t.Errorf("tier %d: DefaultTiers %+v != chain %+v", i, legacy[i], c[i])
		}
	}
}

// FuzzParseTierChain hammers the parser: it must never panic, every
// accepted chain must validate, and printing then reparsing an
// accepted chain must be the identity.
func FuzzParseTierChain(f *testing.F) {
	f.Add("dram:1024/nvm:8192")
	f.Add("dram:1024/cxl:2048/nvm:8192")
	f.Add("fast:512:10:20/slow:4096:100:200:dev")
	f.Add("dram:1024")
	f.Add("all=0.1")
	f.Add(":::/:::")
	f.Add("dram:1024/" + strings.Repeat("nvm:1/", 40) + "ssd:2")
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseTierChain(text)
		if err != nil {
			if !errors.Is(err, ErrBadChain) {
				t.Fatalf("ParseTierChain(%q) error %v does not wrap ErrBadChain", text, err)
			}
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("accepted chain %q fails Validate: %v", text, verr)
		}
		printed := c.String()
		again, err := ParseTierChain(printed)
		if err != nil {
			t.Fatalf("String() of accepted %q does not reparse: %q: %v", text, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("print/parse not a fixed point: %q -> %q", printed, again.String())
		}
	})
}

// TestTierCountBound: a TierID is one byte, so a machine or chain of
// more than MaxTiers tiers is rejected with ErrTooManyTiers rather than
// wrapping tier IDs. Exactly MaxTiers is the largest legal depth.
func TestTierCountBound(t *testing.T) {
	spec := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = "dram:1"
		}
		return strings.Join(parts, "/")
	}
	c, err := ParseTierChain(spec(MaxTiers))
	if err != nil {
		t.Fatalf("%d-tier chain rejected: %v", MaxTiers, err)
	}
	if len(c) != MaxTiers {
		t.Errorf("chain depth = %d, want %d", len(c), MaxTiers)
	}
	pm, err := NewPhysMem(c)
	if err != nil {
		t.Fatalf("NewPhysMem(%d tiers): %v", MaxTiers, err)
	}
	if got := pm.TierOf(PFN(MaxTiers - 1)); got != TierID(MaxTiers-1) {
		t.Errorf("last frame in tier %d, want %d", got, MaxTiers-1)
	}

	_, err = ParseTierChain(spec(MaxTiers + 1))
	if !errors.Is(err, ErrTooManyTiers) || !errors.Is(err, ErrBadChain) {
		t.Errorf("ParseTierChain(%d tiers) err = %v, want ErrTooManyTiers and ErrBadChain", MaxTiers+1, err)
	}
	if err := append(c, c[0]).Validate(); !errors.Is(err, ErrTooManyTiers) {
		t.Errorf("Validate(%d tiers) err = %v, want ErrTooManyTiers", MaxTiers+1, err)
	}
	if _, err := NewPhysMem(append(c, c[0])); !errors.Is(err, ErrTooManyTiers) {
		t.Errorf("NewPhysMem(%d tiers) err = %v, want ErrTooManyTiers", MaxTiers+1, err)
	}
}
