// Quickstart: simulate the baseline networked L2 cache (Design A, a 16x16
// mesh of 64 KB banks) running the gcc workload with the paper's best
// scheme, multicast Fast-LRU, and print what came out.
package main

import (
	"fmt"
	"log"

	"nucanet/internal/cache"
	"nucanet/internal/core"
)

func main() {
	// Start from the baseline (Design A, multicast Fast-LRU, gcc); Run
	// validates the configuration before simulating.
	opt := core.DefaultOptions()
	opt.Accesses = 5000
	result, err := core.Run(opt)
	if err != nil {
		log.Fatal(err)
	}

	opts := result.Options
	fmt.Printf("simulated %d L2 accesses of %s on design %s (%s)\n",
		result.Options.Accesses, opts.Benchmark, opts.DesignID, result.Design.Description)
	fmt.Printf("  IPC: %.3f (perfect-L2 IPC would be %.2f)\n", result.IPC, result.PerfectIPC)
	fmt.Printf("  average L2 latency: %.1f cycles (hits %.1f, misses %.1f)\n",
		result.AvgLatency, result.AvgHit, result.AvgMiss)
	fmt.Printf("  hit rate: %.1f%%, with %.1f%% of hits in the closest (MRU) banks\n",
		100*result.HitRate, 100*result.MRUHitShare)
	fmt.Printf("  where the cycles went: %.0f%% bank, %.0f%% network, %.0f%% memory\n",
		100*result.BankShare, 100*result.NetworkShare, 100*result.MemShare)

	// Compare against the same design running D-NUCA's original
	// multicast Promotion policy.
	opt.Policy, opt.Mode = cache.Promotion, cache.Multicast
	promo, err := core.Run(opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nswitching Fast-LRU -> Promotion: IPC %.3f -> %.3f (%+.1f%%)\n",
		result.IPC, promo.IPC, 100*(promo.IPC-result.IPC)/result.IPC)
}
