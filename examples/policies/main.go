// Policies: reproduce the Figure 8 experiment for one benchmark — compare
// the five replacement/delivery schemes on the baseline mesh and show how
// Fast-LRU overlaps replacement with the search while multicasting
// parallelizes the tag match.
package main

import (
	"flag"
	"fmt"
	"log"

	"nucanet/internal/core"
)

func main() {
	bench := flag.String("bench", "mcf", "Table 2 benchmark")
	n := flag.Int("n", 6000, "measured accesses")
	flag.Parse()

	fmt.Printf("Design A (16x16 mesh), %s, %d accesses\n\n", *bench, *n)
	fmt.Printf("%-22s %8s %8s %8s %8s %10s\n",
		"scheme", "IPC", "avg lat", "hit lat", "miss lat", "bank accs")

	var base float64
	for _, s := range core.Fig8Schemes() {
		opt := core.DefaultOptions()
		opt.Benchmark, opt.Accesses = *bench, *n
		opt.Policy, opt.Mode = s.Policy, s.Mode
		r, err := core.Run(opt)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = r.AvgLatency
		}
		fmt.Printf("%-22s %8.3f %8.1f %8.1f %8.1f %10d\n",
			s.Name, r.IPC, r.AvgLatency, r.AvgHit, r.AvgMiss, r.BankAccesses)
	}

	fmt.Println("\nwhat to look for (Section 6.1):")
	fmt.Println(" - Fast-LRU cuts hit latency and bank accesses vs classic LRU:")
	fmt.Println("   tag-match and replacement share one bank access per hop")
	fmt.Println(" - multicasting removes the serial bank-by-bank search, helping")
	fmt.Println("   deep hits and misses most")
	fmt.Println(" - multicast Fast-LRU combines both and wins everywhere")
}
