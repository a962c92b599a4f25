package place

import (
	"fmt"
	"math"
	"sort"

	"nucanet/internal/area"
	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/core"
	"nucanet/internal/sim"
)

// Config tunes one optimizer search. Start from DefaultConfig: zero is
// not a default, and the five counts (Budget, Wave, ScreenAccesses,
// ConfirmAccesses, Shortlist) must be positive. The search is
// deterministic: same Config, same result, same Hash (pinned by
// cmd/cli_test.go and TestSearchDeterministicAndSound).
type Config struct {
	Seed uint64 // RNG seed for the annealing schedule

	// Budget is how many distinct candidates the search may score with
	// screening runs before it stops. The seed candidate counts.
	Budget int
	// Wave is how many mutations each annealing step proposes; the whole
	// wave screens as one engine batch of Wave x len(Benchmarks) lanes.
	Wave int

	// ScreenAccesses is the per-run length of screening scores.
	// ConfirmAccesses re-scores the shortlist and the baseline at full
	// length before the winner is declared.
	ScreenAccesses  int
	ConfirmAccesses int
	// Shortlist is how many top screening candidates graduate to
	// confirmation (the baseline always confirms too).
	Shortlist int

	Benchmarks []string // scoring mix
	Workers    int      // engine workers; 0 selects GOMAXPROCS

	// Policy and Mode are the replacement scheme of every scored run.
	Policy cache.Policy
	Mode   cache.Mode

	// Cores > 0 scores every candidate as a full-system CMP run: N
	// trace-driven cores share each candidate's fabric, the benchmark
	// score is the geometric mean over the per-core IPCs (so a placement
	// that starves one core scores below one that shares fairly), and the
	// search starts from the Design A mesh instead of the halo — radial
	// candidates cannot host a core grid and are gated out as unsafe.
	Cores int

	// Log, when non-nil, receives one line per wave.
	Log func(format string, args ...any)
}

// DefaultConfig is the search cmd/nucaopt runs with no flags: seed 1, 48
// candidates screened in waves of 8 at 150 accesses (the regime the
// engine's shared preparation is built for), a shortlist of 3 confirmed
// at 4000, under the paper's multicast Fast-LRU. The scoring mix is two
// integer and two FP profiles spanning the Table 2 access-intensity
// range, the same wave core's BenchmarkEngineWave models; a candidate's
// score is the geometric-mean IPC over the mix.
func DefaultConfig() Config {
	return Config{
		Seed: 1, Budget: 48, Wave: 8,
		ScreenAccesses: 150, ConfirmAccesses: 4000, Shortlist: 3,
		Benchmarks: []string{"gcc", "mcf", "art", "apsi"},
		Policy:     cache.FastLRU, Mode: cache.Multicast,
	}
}

// The annealing schedule: the acceptance temperature starts at initTemp,
// as a fraction of the current score, and multiplies by cool each wave.
const (
	initTemp = 0.02
	cool     = 0.85
)

// maxStalledWaves bounds the restart attempts after the reachable
// neighborhood is exhausted: the search terminates even when the gated
// space around the optimum is smaller than the budget.
const maxStalledWaves = 8

// Scored is one evaluated candidate.
type Scored struct {
	Candidate Candidate
	// Score is the geometric-mean IPC over the benchmark mix.
	Score float64
	// AreaMM2 is the candidate's L2 area (banks + routers + links) under
	// the Table 4 model.
	AreaMM2 float64
}

// Result is the outcome of one Search.
type Result struct {
	// Best is the confirmed winner: the shortlist candidate (baseline
	// included) with the highest full-length score. Its score can never
	// fall below Baseline's, because the baseline is always confirmed
	// with it.
	Best Candidate
	// BestScore and BaselineScore are confirmation-length geomean IPCs;
	// Baseline is the search's starting point (the Design F halo, or the
	// Design A mesh when Cores > 0).
	BestScore, BaselineScore float64
	BestArea, BaselineArea   area.Report

	// Confirmed is the full confirmation table, best first.
	Confirmed []Scored

	// Search accounting: candidates scored with screening runs, proposals
	// rejected by the safety verifier, proposals rejected by the area
	// gate, and total simulations dispatched.
	Screened       int
	RejectedUnsafe int
	RejectedArea   int
	Sims           int

	// Report aggregates the scoring batches' sweep accounting.
	Report core.SweepReport
}

// Search runs deterministic simulated annealing over the candidate
// space. Every proposal passes the static safety gate
// (Candidate.Verify: deadlock/livelock-freedom of its routed topology,
// and CMP hosting when Cores > 0)
// and the area gate (L2 area no larger than the Design F baseline's)
// before it is scored; scores come from the real simulator, one
// core.Engine batch per wave. Screening runs are short; the shortlist is
// re-scored at confirmation length together with the baseline, so the
// returned Best is a confirmed, not screened, winner.
func Search(cfg Config) (*Result, error) {
	model := area.DefaultModel()
	baseline := Seed().Canon()
	if cfg.Cores > 0 {
		baseline = SeedCMP().Canon()
		if err := baseline.Verify(cfg.Cores); err != nil {
			return nil, fmt.Errorf("place: cores=%d: %w", cfg.Cores, err)
		}
	}
	baseRep, err := model.Analyze(baseline.Design())
	if err != nil {
		return nil, fmt.Errorf("place: baseline area: %w", err)
	}
	// The area gate: candidates may spend at most the baseline's L2 area
	// (tiny tolerance for the fixed-point link solve).
	budgetMM2 := baseRep.L2MM2() * (1 + 1e-9)

	res := &Result{BaselineArea: baseRep}
	rng := sim.NewRNG(cfg.Seed)
	scores := map[string]Scored{} // canonical encoding -> screening score

	eval := func(cands []Candidate, accesses int) ([]Scored, error) {
		return res.score(cands, accesses, cfg)
	}

	// Screen the seed.
	first, err := eval([]Candidate{baseline}, cfg.ScreenAccesses)
	if err != nil {
		return nil, err
	}
	cur := first[0]
	scores[cur.Candidate.String()] = cur
	res.Screened = 1

	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			cfg.Log(format, args...)
		}
	}
	logf("seed   %-40s ipc %.4f area %.1fmm2 (gate %.1fmm2)",
		cur.Candidate, cur.Score, cur.AreaMM2, budgetMM2)

	temp := initTemp
	stalled := 0
	for wave := 0; res.Screened < cfg.Budget && stalled < maxStalledWaves; wave++ {
		// Propose a wave of gated, unscored neighbors.
		var fresh []Candidate
		proposed := map[string]bool{}
		for try := 0; try < cfg.Wave*8 && len(fresh) < cfg.Wave && res.Screened+len(fresh) < cfg.Budget; try++ {
			n := Mutate(cur.Candidate, rng)
			key := n.String()
			if proposed[key] || key == cur.Candidate.String() {
				continue
			}
			proposed[key] = true
			if _, done := scores[key]; done {
				continue // already screened in an earlier wave
			}
			if err := n.Verify(cfg.Cores); err != nil {
				res.RejectedUnsafe++
				continue
			}
			rep, err := model.Analyze(n.Design())
			if err != nil {
				res.RejectedUnsafe++
				continue
			}
			if rep.L2MM2() > budgetMM2 {
				res.RejectedArea++
				continue
			}
			fresh = append(fresh, n)
		}
		if len(fresh) == 0 {
			// Every proposal was already screened or gated out: the
			// neighborhood of cur is exhausted. Reheat and hop to a random
			// already-screened candidate to escape; give up for good after
			// maxStalledWaves consecutive dry waves.
			stalled++
			temp = initTemp
			if keys := sortedKeys(scores); len(keys) > 0 {
				cur = scores[keys[rng.Intn(len(keys))]]
			}
			continue
		}
		stalled = 0

		// One engine batch screens the whole wave.
		wv, err := eval(fresh, cfg.ScreenAccesses)
		if err != nil {
			return nil, err
		}
		res.Screened += len(wv)

		// Metropolis pass over the wave in proposal order.
		for _, s := range wv {
			scores[s.Candidate.String()] = s
			delta := (s.Score - cur.Score) / math.Max(cur.Score, 1e-12)
			if delta >= 0 || rng.Float64() < math.Exp(delta/temp) {
				cur = s
			}
		}
		logf("wave %2d: %d screened (%d/%d budget), cur %-40s ipc %.4f T=%.4f",
			wave, len(wv), res.Screened, cfg.Budget, cur.Candidate, cur.Score, temp)
		temp *= cool
	}

	// Shortlist: top screening scores (ties broken by encoding for
	// determinism), with the baseline always included.
	short := topK(scores, cfg.Shortlist)
	if !containsCand(short, baseline) {
		short = append(short, baseline)
	}
	confirmed, err := eval(short, cfg.ConfirmAccesses)
	if err != nil {
		return nil, err
	}
	sortScored(confirmed)
	res.Confirmed = confirmed
	res.Best = confirmed[0].Candidate
	res.BestScore = confirmed[0].Score
	for _, s := range confirmed {
		if s.Candidate.String() == baseline.String() {
			res.BaselineScore = s.Score
		}
	}
	res.BestArea, err = model.Analyze(res.Best.Design())
	if err != nil {
		return nil, err
	}
	logf("best   %-40s ipc %.4f (baseline %.4f) area %.1fmm2 (baseline %.1fmm2)",
		res.Best, res.BestScore, res.BaselineScore, res.BestArea.L2MM2(), baseRep.L2MM2())
	return res, nil
}

// score evaluates candidates on the benchmark mix as one engine batch
// of len(cands) x len(benchmarks) lanes.
func (res *Result) score(cands []Candidate, accesses int, cfg Config) ([]Scored, error) {
	model := area.DefaultModel()
	opts := make([]core.Options, 0, len(cands)*len(cfg.Benchmarks))
	designs := make([]config.Design, len(cands))
	for i, c := range cands {
		designs[i] = c.Design()
		for _, bench := range cfg.Benchmarks {
			opt := core.DefaultOptions()
			opt.DesignID = designs[i].ID
			opt.Design = &designs[i]
			opt.Policy, opt.Mode = cfg.Policy, cfg.Mode
			opt.Benchmark = bench
			opt.Accesses = accesses
			opt.Seed = 42
			opt.Cores = cfg.Cores
			opts = append(opts, opt)
		}
	}
	results, rep, err := core.NewEngine(cfg.Workers).RunAll(opts)
	if err != nil {
		return nil, err
	}
	res.Sims += len(opts)
	res.Report.Runs += rep.Runs
	res.Report.Workers = rep.Workers
	res.Report.Wall += rep.Wall
	res.Report.Work += rep.Work

	out := make([]Scored, len(cands))
	for i, c := range cands {
		logSum := 0.0
		for j := range cfg.Benchmarks {
			r := results[i*len(cfg.Benchmarks)+j]
			ipc := r.IPC
			if len(r.Cores) > 0 {
				// Multi-core screening: the benchmark's score is the geomean
				// over per-core IPCs, not the aggregate — unfair sharing
				// (one starved core) drags the geomean down even when the
				// sum looks healthy.
				cl := 0.0
				for _, cr := range r.Cores {
					cl += math.Log(cr.IPC)
				}
				ipc = math.Exp(cl / float64(len(r.Cores)))
			}
			logSum += math.Log(ipc)
		}
		rep, err := model.Analyze(designs[i])
		if err != nil {
			return nil, err
		}
		out[i] = Scored{
			Candidate: c,
			Score:     math.Exp(logSum / float64(len(cfg.Benchmarks))),
			AreaMM2:   rep.L2MM2(),
		}
	}
	return out, nil
}

// topK returns the k highest screening scores, deterministically (score
// descending, then canonical encoding ascending).
func topK(scores map[string]Scored, k int) []Candidate {
	all := make([]Scored, 0, len(scores))
	for _, s := range scores {
		all = append(all, s)
	}
	sortScored(all)
	if k > len(all) {
		k = len(all)
	}
	out := make([]Candidate, k)
	for i := range out {
		out[i] = all[i].Candidate
	}
	return out
}

// sortScored orders by score descending, canonical encoding ascending on
// ties — a total order, so map iteration above cannot leak
// nondeterminism.
func sortScored(s []Scored) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].Candidate.String() < s[j].Candidate.String()
	})
}

// sortedKeys lists the screened encodings in sorted order — the
// deterministic index the restart hop draws from.
func sortedKeys(scores map[string]Scored) []string {
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func containsCand(cands []Candidate, c Candidate) bool {
	for _, x := range cands {
		if x.String() == c.String() {
			return true
		}
	}
	return false
}
