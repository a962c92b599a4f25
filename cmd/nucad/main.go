// Command nucad is the simulation-as-a-service daemon: a long-running
// HTTP server that executes deterministic NUCA simulations on demand
// and serves repeat queries from a content-addressed result cache.
//
//	nucad -addr 127.0.0.1:8080 -j 8 -cache 4096 -queue 16
//
// Endpoints (see EXPERIMENTS.md "Serving experiments over HTTP"):
//
//	POST /v1/run         run (or fetch) one configuration
//	GET  /v1/designs     design catalogue
//	GET  /v1/policies    replacement policies
//	GET  /v1/routings    routing algorithms
//	GET  /v1/routers     router microarchitectures
//	GET  /v1/benchmarks  Table 2 workload profiles
//	GET  /v1/experiments experiment catalogue (paperbench -exp)
//	GET  /v1/stats       cache/queue/aggregate counters
//	GET  /v1/healthz     ok, or draining during shutdown
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight and queued runs
// complete and respond before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nucanet/internal/cliutil"
	"nucanet/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		jobs         = cliutil.Jobs(flag.CommandLine)
		queueDepth   = flag.Int("queue", 16, "per-client pending-run bound (backpressure threshold)")
		cacheEntries = flag.Int("cache", 4096, "result cache capacity (entries)")
		maxAccesses  = flag.Int("max-accesses", 200000, "per-request cap on simulated accesses: accesses x cores, defaults included")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	)
	flag.Parse()
	workers, err := cliutil.ResolveJobs(*jobs)
	if err != nil {
		fatal(err)
	}

	srv := serve.New(serve.Config{
		Workers:      workers,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		MaxAccesses:  *maxAccesses,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fatal(err)
		}
	}
	log.Printf("nucad: serving on http://%s (workers %d, queue depth %d, cache %d)",
		bound, srv.Workers(), *queueDepth, *cacheEntries)

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("nucad: %v: draining...", s)
	case err := <-done:
		fatal(err)
	}

	// Drain: stop accepting HTTP, let active handlers (and the runs
	// they wait on) finish, then stop the scheduler.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("nucad: shutdown: %v", err)
	}
	srv.Close()
	log.Printf("nucad: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nucad:", err)
	os.Exit(1)
}
