package core

import (
	"bytes"
	"fmt"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/telemetry"
)

// fingerprint serializes every measurement of a result slice into a
// stable byte form, including the full latency accumulator. Two sweeps
// are "the same experiment" exactly when their fingerprints are
// byte-identical.
func fingerprint(t *testing.T, rs []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, r := range rs {
		fmt.Fprintf(&buf, "run %d %s/%v/%v/%s seed=%d\n",
			i, r.Design.ID, r.Options.Policy, r.Options.Mode, r.Options.Benchmark, r.Options.Seed)
		fmt.Fprintf(&buf, "  ipc=%v instr=%d cycles=%d\n", r.IPC, r.Instructions, r.Cycles)
		fmt.Fprintf(&buf, "  lat=%v hit=%v miss=%v occ=%v hitrate=%v mru=%v\n",
			r.AvgLatency, r.AvgHit, r.AvgMiss, r.AvgOccupancy, r.HitRate, r.MRUHitShare)
		fmt.Fprintf(&buf, "  shares=%v/%v/%v banks=%d\n",
			r.BankShare, r.NetworkShare, r.MemShare, r.BankAccesses)
		fmt.Fprintf(&buf, "  net=%+v mem=%+v energy=%+v\n", r.Network, r.Memory, r.Energy)
		if r.Latency == nil {
			t.Fatalf("run %d: nil latency snapshot", i)
		}
		fmt.Fprintf(&buf, "  acc=%s max=%d ways=%v occ=%d/%d split=%d/%d/%d\n",
			r.Latency, r.Latency.MaxLat, r.Latency.HitWays(),
			r.Latency.OccSum, r.Latency.OccCount,
			r.Latency.Bank, r.Latency.Network, r.Latency.Memory)
	}
	return buf.Bytes()
}

// TestParallelEngineDeterminism is the regression harness of the parallel
// engine: for every topology family (mesh A, simplified mesh B, halo F)
// crossed with every replacement policy, the same job list run
// sequentially (Workers=1) and through the worker pool (Workers=8) must
// produce byte-identical stats. Any shared mutable state between runs —
// a package-level counter, an aliased slice, a global RNG — shows up
// here as a fingerprint mismatch (or as a -race report).
func TestParallelEngineDeterminism(t *testing.T) {
	accesses := 400
	if testing.Short() {
		accesses = 120
	}
	designs := []string{"A", "B", "F"} // mesh, simplified mesh (XYX), halo
	policies := []cache.Policy{cache.Promotion, cache.LRU, cache.FastLRU}
	for _, id := range designs {
		for _, pol := range policies {
			t.Run(fmt.Sprintf("%s-%v", id, pol), func(t *testing.T) {
				t.Parallel()
				mode := cache.Multicast
				if pol == cache.LRU {
					mode = cache.Unicast // LRU is only evaluated unicast in the paper
				}
				var opts []Options
				for _, bench := range []string{"gcc", "mcf"} {
					for _, seed := range []uint64{7, 42} {
						opts = append(opts, Options{
							DesignID: id, Policy: pol, Mode: mode,
							Benchmark: bench, Accesses: accesses, Seed: seed,
						})
					}
				}
				seq, _, err := NewEngine(1).RunAll(opts)
				if err != nil {
					t.Fatal(err)
				}
				par, _, err := NewEngine(8).RunAll(opts)
				if err != nil {
					t.Fatal(err)
				}
				fpSeq, fpPar := fingerprint(t, seq), fingerprint(t, par)
				if !bytes.Equal(fpSeq, fpPar) {
					t.Errorf("sequential and parallel sweeps diverge:\n--- j=1 ---\n%s--- j=8 ---\n%s",
						fpSeq, fpPar)
				}
			})
		}
	}
}

// telemetryFingerprint serializes every telemetry artifact of a result
// slice — the JSONL trace, the rendered heatmap, and the rendered time
// series — into one stable byte form.
func telemetryFingerprint(t *testing.T, rs []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, r := range rs {
		tel := r.Telemetry
		if tel == nil || tel.Trace == nil || tel.Heat == nil || tel.Series == nil {
			t.Fatalf("run %d: telemetry artifacts missing: %+v", i, tel)
		}
		fmt.Fprintf(&buf, "run %d: %d events\n", i, tel.Trace.Len())
		if err := tel.Trace.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		tel.Heat.Render(&buf)
		tel.Series.Render(&buf)
	}
	return buf.Bytes()
}

// TestTelemetryDeterministicAcrossWorkers pins the telemetry subsystem's
// two guarantees at once: (1) for a fixed seed the full probe output —
// event trace JSONL, heatmap render, time series render — is
// byte-identical whether the sweep runs sequentially or on 8 workers;
// (2) turning the probes on does not perturb the simulation itself (the
// measurement fingerprints with and without telemetry match).
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	accesses := 300
	if testing.Short() {
		accesses = 100
	}
	var plain, probed []Options
	for _, id := range []string{"A", "F"} { // mesh and halo topologies
		for _, seed := range []uint64{7, 42} {
			o := Options{
				DesignID: id, Policy: cache.FastLRU, Mode: cache.Multicast,
				Benchmark: "gcc", Accesses: accesses, Seed: seed,
			}
			plain = append(plain, o)
			o.Telemetry = telemetry.Config{Trace: true, Heatmap: true, SampleEvery: 50}
			probed = append(probed, o)
		}
	}
	seq, _, err := NewEngine(1).RunAll(probed)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := NewEngine(8).RunAll(probed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(telemetryFingerprint(t, seq), telemetryFingerprint(t, par)) {
		t.Error("telemetry output differs between j=1 and j=8")
	}

	// Zero perturbation: the observed runs report the same measurements
	// as unobserved ones.
	base, _, err := NewEngine(8).RunAll(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, base), fingerprint(t, seq)) {
		t.Error("enabling telemetry perturbed the simulation measurements")
	}
}

// TestExperimentDriversDeterministicAcrossWorkers pins the user-visible
// guarantee: paperbench -exp X -j 1 and -j 8 print identical rows, for
// every row of the catalogue.
func TestExperimentDriversDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full driver sweep; skipped in -short")
	}
	cfgSeq, cfgPar := paperCfg(150, 7), paperCfg(150, 7)
	cfgSeq.Workers, cfgPar.Workers = 1, 8
	for _, name := range ExperimentNames() {
		var seq, par bytes.Buffer
		runExperiment(t, name, cfgSeq).Render(&seq)
		runExperiment(t, name, cfgPar).Render(&par)
		if !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Errorf("%s rows differ between j=1 and j=8:\n%s\n%s", name, &seq, &par)
		}
	}
}
