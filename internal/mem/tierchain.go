package mem

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrBadChain rejects a malformed -tiers chain specification. Every
// parse and validation failure wraps it, so CLI surfaces branch with
// errors.Is instead of matching message text.
var ErrBadChain = errors.New("mem: invalid tier chain")

// TierChain is an ordered memory hierarchy, fastest tier first. It is
// the configuration form of the machine's tier layout: NewPhysMem
// consumes it directly (a TierChain is a []TierSpec), the mover
// promotes and demotes between adjacent entries, and the CLIs parse it
// from the -tiers grammar:
//
//	chain := tier ("/" tier)+
//	tier  := name ":" frames [":" read ":" write] [":dev"]
//
// frames is the tier capacity in 4 KiB frames; read and write are the
// per-line latencies in ns. Both latencies may be omitted for the
// preset media names (dram, cxl, nvm, ssd), which also carry their
// device flag: cxl is a self-profiling device tier by default. The
// trailing "dev" marks any tier as device-profiled explicitly.
// A chain needs at least two tiers — a single tier is not a hierarchy
// and parses to an error, not a degenerate machine — and at most
// MaxTiers.
//
// String renders the canonical full form (every latency explicit,
// ":dev" on device tiers); ParseTierChain(c.String()) round-trips.
type TierChain []TierSpec

// tierPreset carries the default timing/device point of a known media
// name. Latencies follow DefaultTiers for dram/nvm; cxl sits between
// them (CXL-attached DRAM: DRAM media behind a ~60 ns link hop) and is
// a profiling-capable device; ssd models a far memory tier.
type tierPreset struct {
	read, write int64
	device      bool
}

var tierPresets = map[string]tierPreset{
	"dram": {read: 80, write: 80},
	"cxl":  {read: 140, write: 180, device: true},
	"nvm":  {read: 320, write: 640},
	"ssd":  {read: 1280, write: 2560},
}

// ParseTierChain parses the -tiers grammar. The zero-value chain is
// never returned alongside a nil error: the result always validates.
func ParseTierChain(text string) (TierChain, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, fmt.Errorf("empty spec: %w", ErrBadChain)
	}
	parts := strings.Split(text, "/")
	chain := make(TierChain, 0, len(parts))
	for _, part := range parts {
		spec, err := parseTier(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		chain = append(chain, spec)
	}
	if err := chain.Validate(); err != nil {
		return nil, err
	}
	return chain, nil
}

// parseTier parses one name:frames[:read:write][:dev] element.
func parseTier(text string) (TierSpec, error) {
	fields := strings.Split(text, ":")
	dev := false
	if n := len(fields); n > 1 && fields[n-1] == "dev" {
		dev = true
		fields = fields[:n-1]
	}
	if len(fields) != 2 && len(fields) != 4 {
		return TierSpec{}, fmt.Errorf("tier %q: want name:frames[:read:write][:dev]: %w", text, ErrBadChain)
	}
	name := strings.TrimSpace(fields[0])
	if name == "" {
		return TierSpec{}, fmt.Errorf("tier %q: empty name: %w", text, ErrBadChain)
	}
	frames, err := strconv.Atoi(strings.TrimSpace(fields[1]))
	if err != nil {
		return TierSpec{}, fmt.Errorf("tier %q: bad frame count %q: %w", text, fields[1], ErrBadChain)
	}
	if frames <= 0 {
		return TierSpec{}, fmt.Errorf("tier %q: frame count %d must be positive: %w", text, frames, ErrBadChain)
	}
	spec := TierSpec{Name: name, Frames: frames, Device: dev}
	if len(fields) == 4 {
		read, err := strconv.ParseInt(strings.TrimSpace(fields[2]), 10, 64)
		if err != nil {
			return TierSpec{}, fmt.Errorf("tier %q: bad read latency %q: %w", text, fields[2], ErrBadChain)
		}
		write, err := strconv.ParseInt(strings.TrimSpace(fields[3]), 10, 64)
		if err != nil {
			return TierSpec{}, fmt.Errorf("tier %q: bad write latency %q: %w", text, fields[3], ErrBadChain)
		}
		if read <= 0 || write <= 0 {
			return TierSpec{}, fmt.Errorf("tier %q: latencies must be positive: %w", text, ErrBadChain)
		}
		spec.ReadLatency, spec.WriteLatency = read, write
		return spec, nil
	}
	preset, ok := tierPresets[name]
	if !ok {
		return TierSpec{}, fmt.Errorf("tier %q: unknown media %q needs explicit read:write latencies: %w", text, name, ErrBadChain)
	}
	spec.ReadLatency, spec.WriteLatency = preset.read, preset.write
	spec.Device = dev || preset.device
	return spec, nil
}

// String renders the canonical full-form grammar; ParseTierChain
// round-trips it.
func (c TierChain) String() string {
	var b strings.Builder
	for i, s := range c {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%s:%d:%d:%d", s.Name, s.Frames, s.ReadLatency, s.WriteLatency)
		if s.Device {
			b.WriteString(":dev")
		}
	}
	return b.String()
}

// Validate checks the chain is a usable hierarchy: two to MaxTiers
// tiers, every spec individually valid.
func (c TierChain) Validate() error {
	if len(c) < 2 {
		return fmt.Errorf("chain has %d tier(s), need at least 2: %w", len(c), ErrBadChain)
	}
	if len(c) > MaxTiers {
		return fmt.Errorf("chain has %d tiers: %w: %w", len(c), ErrTooManyTiers, ErrBadChain)
	}
	for i, s := range c {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("tier %d: %v: %w", i, err, ErrBadChain)
		}
	}
	return nil
}

// HasDevice reports whether any tier is device-profiled.
func (c TierChain) HasDevice() bool {
	for _, s := range c {
		if s.Device {
			return true
		}
	}
	return false
}
