package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nucanet/internal/config"
	"nucanet/internal/cpu"
	"nucanet/internal/telemetry"
)

// canonicalRun is the normalized image of one Options value: the design
// resolved through config.Resolve (so a catalogue id and a byte-equal
// ad-hoc override hash identically) and the CPU config normalized by the
// same normalizedCPU call Prepare simulates with. Two Options values that
// produce this same image produce bit-identical simulations — the
// property the serving cache is built on.
type canonicalRun struct {
	Design    config.Design
	Policy    string
	Mode      string
	Benchmark string
	Accesses  int
	Seed      uint64
	CPU       cpu.Config
	Telemetry telemetry.Config
	Cores     int
}

// CanonicalKey returns the content address of a run: a hex SHA-256 over
// the deterministic encoding of the fully resolved configuration.
// Because Run is deterministic in its resolved configuration, equal keys
// imply byte-identical Results; the serving layer uses the key to
// collapse repeat requests into cache hits. Unresolvable options (the
// same ones Validate rejects) return an error.
func CanonicalKey(o Options) (string, error) {
	d, err := resolveDesign(o)
	if err != nil {
		return "", err
	}
	if !o.Policy.Valid() {
		return "", fmt.Errorf("core: invalid policy %v", o.Policy)
	}
	if !o.Mode.Valid() {
		return "", fmt.Errorf("core: invalid mode %v", o.Mode)
	}
	c := canonicalRun{
		Design:    d,
		Policy:    o.Policy.String(),
		Mode:      o.Mode.String(),
		Benchmark: o.Benchmark,
		Accesses:  o.Accesses,
		Seed:      o.Seed,
		CPU:       normalizedCPU(o),
		Telemetry: o.Telemetry,
		Cores:     o.Cores,
	}
	// encoding/json over plain structs is deterministic: fields emit in
	// declaration order and there are no maps anywhere in canonicalRun.
	buf, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("core: canonical encoding: %w", err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}
