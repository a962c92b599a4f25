// Package trace generates the L2 access streams that drive the simulator.
//
// The paper drives its cache simulator with L2 accesses produced by
// sim-alpha running SPEC2000. Neither is available here, so each benchmark
// becomes a profile carrying exactly the quantities Table 2 reports
// (instructions executed, perfect-L2 IPC, L2 reads and writes, accesses
// per instruction) plus a two-parameter locality model — the probability
// of touching a brand-new block (PNew) and a Zipf exponent (Alpha) over
// LRU stack depth — tuned to the qualitative facts stated in the paper:
// art has essentially no misses beyond compulsory ones, applu and lucas
// have low hit rates, and most hits concentrate near the MRU ways under
// LRU ordering. The protocols under test observe only the resulting
// {address, read/write} stream.
package trace

import "fmt"

// Profile describes one benchmark workload.
type Profile struct {
	Name string
	FP   bool // floating-point (vs integer) suite

	// Table 2 columns.
	InstrTotal  int64   // instructions executed in the paper's window
	PerfectIPC  float64 // IPC with a perfect L2
	ReadsM      float64 // L2 reads, millions
	WritesM     float64 // L2 writes, millions
	AccPerInstr float64 // L2 accesses per instruction

	// Synthetic locality model (substitution; see package comment).
	// MissRate is the target 16-way LRU miss rate of the stream; Alpha
	// is the Zipf exponent over the 16 resident ways for hits (higher =
	// more MRU-concentrated).
	MissRate float64
	Alpha    float64
}

// WriteFrac returns the fraction of accesses that are writes.
func (p Profile) WriteFrac() float64 {
	return p.WritesM / (p.ReadsM + p.WritesM)
}

// billion and million scale Table 2 instruction counts.
const (
	million = 1_000_000
	billion = 1_000_000_000
)

// profiles is Table 2 of the paper plus the locality parameters of the
// synthetic substitution.
var profiles = []Profile{
	{Name: "applu", FP: true, InstrTotal: 500 * million, PerfectIPC: 0.43, ReadsM: 9.444, WritesM: 4.428, AccPerInstr: 0.028, MissRate: 0.18, Alpha: 0.9},
	{Name: "apsi", FP: true, InstrTotal: 1 * billion, PerfectIPC: 0.40, ReadsM: 12.375, WritesM: 8.204, AccPerInstr: 0.021, MissRate: 0.06, Alpha: 1.3},
	{Name: "art", FP: true, InstrTotal: 500 * million, PerfectIPC: 0.40, ReadsM: 63.877, WritesM: 13.578, AccPerInstr: 0.155, MissRate: 0.002, Alpha: 2.5},
	{Name: "galgel", FP: true, InstrTotal: 2 * billion, PerfectIPC: 0.43, ReadsM: 19.415, WritesM: 4.137, AccPerInstr: 0.012, MissRate: 0.03, Alpha: 1.4},
	{Name: "lucas", FP: true, InstrTotal: 1 * billion, PerfectIPC: 0.44, ReadsM: 19.506, WritesM: 13.226, AccPerInstr: 0.033, MissRate: 0.18, Alpha: 0.9},
	{Name: "mesa", FP: true, InstrTotal: 2 * billion, PerfectIPC: 0.40, ReadsM: 2.907, WritesM: 2.656, AccPerInstr: 0.003, MissRate: 0.02, Alpha: 1.5},
	{Name: "bzip2", FP: false, InstrTotal: 2 * billion, PerfectIPC: 0.39, ReadsM: 16.301, WritesM: 4.233, AccPerInstr: 0.010, MissRate: 0.03, Alpha: 1.3},
	{Name: "gcc", FP: false, InstrTotal: 500 * million, PerfectIPC: 0.29, ReadsM: 26.201, WritesM: 14.827, AccPerInstr: 0.082, MissRate: 0.05, Alpha: 1.2},
	{Name: "mcf", FP: false, InstrTotal: 250 * million, PerfectIPC: 0.34, ReadsM: 29.500, WritesM: 15.755, AccPerInstr: 0.181, MissRate: 0.1, Alpha: 1.0},
	{Name: "parser", FP: false, InstrTotal: 2 * billion, PerfectIPC: 0.38, ReadsM: 18.257, WritesM: 6.915, AccPerInstr: 0.013, MissRate: 0.03, Alpha: 1.3},
	{Name: "twolf", FP: false, InstrTotal: 1 * billion, PerfectIPC: 0.38, ReadsM: 20.283, WritesM: 7.653, AccPerInstr: 0.028, MissRate: 0.025, Alpha: 1.4},
	{Name: "vpr", FP: false, InstrTotal: 1 * billion, PerfectIPC: 0.41, ReadsM: 12.459, WritesM: 5.024, AccPerInstr: 0.017, MissRate: 0.03, Alpha: 1.4},
}

// Profiles returns the 12 SPEC2000 benchmark profiles of Table 2 in the
// paper's order.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// ProfileByName looks up one benchmark. A miss names the catalogue.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown benchmark %q (known: %v)", name, Names())
}

// Names returns the benchmark names in Table 2 order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}
