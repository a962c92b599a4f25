// Command nucaopt searches the topology-placement space for a cache
// network beating the paper's Design F halo at equal or lower area.
//
// A candidate is (topology family, bank stack, endpoint columns); wire
// delays derive from bank geometry, so Table 3's designs A, C, and F are
// points of the space (internal/place). The search is deterministic
// simulated annealing: every proposal passes the static deadlock/
// livelock verifier and the Table 4 area gate before core.Engine
// scores its wave as one batch on the benchmark mix with short
// screening runs; the shortlist and the baseline re-score at full length
// before the winner is declared.
//
// Usage:
//
//	nucaopt                          # default search (budget 48)
//	nucaopt -budget 200 -confirm 8000
//	nucaopt -seed 7 -benches gcc,mcf,art,apsi
//	nucaopt -budget 6 -wave 4 -screen 60 -confirm 150 -q   # smoke: prints only the result
//	nucaopt -cores 4                 # score candidates as 4-core CMP runs (grid families)
//
// The final line carries the canonical best candidate and its hash;
// identical flags always reproduce it bit-for-bit (cmd/cli_test.go pins
// this).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nucanet/internal/cliutil"
	"nucanet/internal/place"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "annealing RNG seed")
		budget  = flag.Int("budget", 48, "candidates to screen before stopping")
		wave    = flag.Int("wave", 8, "proposals per annealing wave (one engine batch)")
		screen  = flag.Int("screen", 150, "accesses per screening run")
		confirm = flag.Int("confirm", 4000, "accesses per confirmation run")
		short   = flag.Int("shortlist", 3, "screening candidates graduating to confirmation")
		benches = flag.String("benches", strings.Join(place.DefaultBenchmarks, ","),
			"comma-separated scoring benchmark mix")
		quiet = flag.Bool("q", false, "suppress per-wave progress")
		jobs  = cliutil.Jobs(flag.CommandLine)
		cores = flag.Int("cores", 0,
			"score candidates as N-core CMP runs (geomean over per-core IPCs; grid families only, 0 = classic single-core)")
	)
	policy, mode := cliutil.Scheme(flag.CommandLine)
	flag.Parse()
	workers, err := cliutil.ResolveJobs(*jobs)
	fatal(err)

	cfg := place.Config{
		Seed:            *seed,
		Budget:          *budget,
		Wave:            *wave,
		ScreenAccesses:  *screen,
		ConfirmAccesses: *confirm,
		Shortlist:       *short,
		Benchmarks:      strings.Split(*benches, ","),
		Workers:         workers,
		Policy:          policy.String(),
		Mode:            mode.String(),
		Cores:           *cores,
	}
	if !*quiet {
		cfg.Log = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	res, err := place.Search(cfg)
	fatal(err)

	fmt.Printf("\nconfirmed @%d accesses (best first):\n", *confirm)
	for _, s := range res.Confirmed {
		fmt.Printf("  %-44s ipc %.4f  area %6.2f mm2\n", s.Candidate, s.Score, s.AreaMM2)
	}
	fmt.Printf("search: %d screened, %d rejected unsafe, %d rejected by area, %d simulations (wall %.1fs)\n",
		res.Screened, res.RejectedUnsafe, res.RejectedArea, res.Sims, res.Report.Wall.Seconds())
	fmt.Printf("best: %s ipc %.4f (baseline %.4f, %+.2f%%) area %.2f mm2 (baseline %.2f) hash %016x\n",
		res.Best, res.BestScore, res.BaselineScore, 100*(res.BestScore/res.BaselineScore-1),
		res.BestArea.L2MM2(), res.BaselineArea.L2MM2(), res.Best.Hash())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nucaopt:", err)
		os.Exit(1)
	}
}
