// Topologies: reproduce the Figure 9 + Table 4 experiment for one
// benchmark — sweep the six Table 3 network designs under multicast
// Fast-LRU and set performance against silicon area.
package main

import (
	"flag"
	"fmt"
	"log"

	"nucanet/internal/area"
	"nucanet/internal/config"
	"nucanet/internal/core"
)

func main() {
	bench := flag.String("bench", "gcc", "Table 2 benchmark")
	n := flag.Int("n", 6000, "measured accesses")
	flag.Parse()

	model := area.DefaultModel()
	fmt.Printf("%s, %d accesses, multicast Fast-LRU everywhere\n\n", *bench, *n)
	fmt.Printf("%-3s %-46s %7s %7s %9s %10s\n",
		"id", "design", "IPC", "norm", "L2 mm2", "net mm2")

	var baseIPC float64
	for _, d := range config.Designs() {
		opt := core.DefaultOptions() // multicast Fast-LRU, seed 42
		opt.DesignID, opt.Benchmark, opt.Accesses = d.ID, *bench, *n
		r, err := core.Run(opt)
		if err != nil {
			log.Fatal(err)
		}
		if d.ID == "A" {
			baseIPC = r.IPC
		}
		rep, err := model.Analyze(d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-3s %-46s %7.3f %7.3f %9.1f %10.1f\n",
			d.ID, d.Description, r.IPC, r.IPC/baseIPC, rep.L2MM2(), rep.NetworkMM2())
	}

	fmt.Println("\nwhat to look for (Sections 4, 6.2, 6.3):")
	fmt.Println(" - B matches A with far fewer links: XYX routing needs no")
	fmt.Println("   horizontal links outside the core row")
	fmt.Println(" - the halo designs (E, F) put every MRU bank one hop from the")
	fmt.Println("   hub; F also shrinks the die with non-uniform banks")
	fmt.Println(" - F delivers the best IPC on a quarter of A's interconnect area")
}
