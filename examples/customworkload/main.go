// Customworkload: drive a halo cache directly with your own access stream
// through the lower-level cache.System API — build the system, preload it,
// issue accesses with completion callbacks, and validate the protocol
// against the golden functional model as you go and at the end.
package main

import (
	"fmt"
	"log"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/sim"
	"nucanet/internal/trace"
)

func main() {
	// A Design F cache: 16 spikes of non-uniform banks around the hub.
	design, err := config.DesignByID("F")
	if err != nil {
		log.Fatal(err)
	}
	k := sim.NewKernel()
	sys, err := cache.New(k, design, cache.FastLRU, cache.Multicast)
	if err != nil {
		log.Fatal(err)
	}

	// A hand-rolled workload: a hot stride over two columns plus a cold
	// scan that always misses, written with the address map directly.
	am := sys.AM
	var accs []trace.Access
	for i := 0; i < 800; i++ {
		switch i % 4 {
		case 0, 1: // hot reads, same few blocks -> MRU hits
			accs = append(accs, trace.Access{Addr: am.Compose(uint64(1+i%3), 7, 2)})
		case 2: // writes cycling over more tags than the set holds:
			// eventually dirty victims spill back to memory
			accs = append(accs, trace.Access{Addr: am.Compose(uint64(1+(i/4)%24), 9, 11), Write: true})
		case 3: // cold scan spread over sets: compulsory misses
			accs = append(accs, trace.Access{Addr: am.Compose(uint64(1000+i), (i/4)%64, 5)})
		}
	}

	// Track completions with the callback API and mirror every access in
	// the golden reference model.
	golden := sys.NewGoldenFor()
	agree := 0
	done := 0
	for _, a := range accs {
		wantHit, _, _, _ := golden.Access(am.ColumnOf(a.Addr), am.SetOf(a.Addr), am.TagOf(a.Addr))
		want := wantHit
		sys.Issue(a.Addr, a.Write, func(r *cache.Request, now int64) {
			done++
			if r.Hit == want {
				agree++
			}
		})
		// Pace the issue stream: run the kernel a few cycles per access.
		k.Run(12)
	}
	if err := sys.Drain(10_000_000); err != nil {
		log.Fatal(err)
	}
	// The replacement chains must leave every set the stream touched
	// exactly as the golden model does.
	for _, a := range accs {
		col, set := am.ColumnOf(a.Addr), am.SetOf(a.Addr)
		if got, want := sys.Contents(col, set), golden.Contents(col, set); fmt.Sprint(got) != fmt.Sprint(want) {
			log.Fatalf("column %d set %d: cache holds %v, golden model %v", col, set, got, want)
		}
	}

	fmt.Printf("issued %d accesses on design F (halo, non-uniform banks)\n", len(accs))
	fmt.Printf("  completions: %d, golden-model agreement: %d/%d\n", done, agree, done)
	fmt.Printf("  hit rate %.1f%%, avg latency %.1f cycles (hit %.1f / miss %.1f)\n",
		100*sys.Lat.HitRate(), sys.Lat.Avg(), sys.Lat.AvgHit(), sys.Lat.AvgMiss())
	st := sys.Net.Stats()
	fmt.Printf("  network: %d packets, %d flit-hops, %d multicast replicas\n",
		st.PacketsInjected, st.Router.FlitsRouted, st.Router.ReplicasSpawned)
	fmt.Printf("  memory: %d reads, %d writebacks\n",
		sys.Memory.Stats().Reads, sys.Memory.Stats().WriteBacks)
}
