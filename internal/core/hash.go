package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"nucanet/internal/cpu"
	"nucanet/internal/telemetry"
)

// A run's canonical image is the JSON object
//
//	{"Design":<resolved design>,"Policy":…,"Mode":…,"Benchmark":…,
//	 "Accesses":…,"Seed":…,"CPU":…,"Telemetry":…,"Cores":…}
//
// with the design resolved through resolveDesign (so a catalogue id and
// a byte-equal ad-hoc override hash identically) and the CPU config
// normalized by the same normalizedCPU call Prepare simulates with. Two
// Options values that produce this same image produce bit-identical
// simulations — the property the serving cache is built on. The design's
// part is encoded once per resolution (resolvedDesign.head); canonicalTail
// is the rest, whose encoding continues it after the opening brace.
type canonicalTail struct {
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
	rd, err := resolveDesign(o)
	if err != nil {
		return "", err
	}
	if !o.Policy.Valid() {
		return "", fmt.Errorf("core: invalid policy %v", o.Policy)
	}
	if !o.Mode.Valid() {
		return "", fmt.Errorf("core: invalid mode %v", o.Mode)
	}
	t := canonicalTail{
		Policy:    o.Policy.String(),
		Mode:      o.Mode.String(),
		Benchmark: o.Benchmark,
		Accesses:  o.Accesses,
		Seed:      o.Seed,
		CPU:       normalizedCPU(o),
		Telemetry: o.Telemetry,
		Cores:     o.Cores,
	}
	var buf [256]byte
	tail, err := t.appendJSON(buf[:0])
	if err != nil {
		return "", fmt.Errorf("core: canonical encoding: %w", err)
	}
	h := sha256.New()
	h.Write(rd.head)
	h.Write(tail)
	var sum [sha256.Size]byte
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], h.Sum(sum[:0]))
	return string(key[:]), nil
}

// appendJSON appends what json.Marshal(t) encodes, minus the opening
// brace (the design's head already opened the object). It is written
// out because a key is hashed on every nucad request, where the
// reflective encoder costs more than the rest of the key together;
// TestCanonicalKeyTailMatchesJSON holds it to json.Marshal over random
// values of every field, so a field added to canonicalTail, cpu.Config or
// telemetry.Config fails there until it is encoded here.
func (t canonicalTail) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `"Policy":`...)
	b = appendJSONString(b, t.Policy)
	b = append(b, `,"Mode":`...)
	b = appendJSONString(b, t.Mode)
	b = append(b, `,"Benchmark":`...)
	b = appendJSONString(b, t.Benchmark)
	b = append(b, `,"Accesses":`...)
	b = strconv.AppendInt(b, int64(t.Accesses), 10)
	b = append(b, `,"Seed":`...)
	b = strconv.AppendUint(b, t.Seed, 10)
	b = append(b, `,"CPU":{"Window":`...)
	b = strconv.AppendInt(b, int64(t.CPU.Window), 10)
	b = append(b, `,"BlockingProb":`...)
	b, err := appendJSONFloat(b, t.CPU.BlockingProb)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"Seed":`...)
	b = strconv.AppendUint(b, t.CPU.Seed, 10)
	b = append(b, `},"Telemetry":{"Trace":`...)
	b = strconv.AppendBool(b, t.Telemetry.Trace)
	b = append(b, `,"Heatmap":`...)
	b = strconv.AppendBool(b, t.Telemetry.Heatmap)
	b = append(b, `,"SampleEvery":`...)
	b = strconv.AppendInt(b, int64(t.Telemetry.SampleEvery), 10)
	b = append(b, `},"Cores":`...)
	b = strconv.AppendInt(b, int64(t.Cores), 10)
	return append(b, '}'), nil
}

// appendJSONString appends s as encoding/json quotes it. Printable ASCII
// other than the characters it escapes is copied; anything else takes
// the encoder itself, so every name and benchmark string round-trips.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json does: plain decimal in
// [1e-6, 1e21) and for zero, the encoder itself (exponent form, or the
// error for NaN and the infinities) elsewhere.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	q, err := json.Marshal(f)
	return append(b, q...), err
}
