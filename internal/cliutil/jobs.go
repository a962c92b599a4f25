// Package cliutil holds small helpers shared by the command-line tools
// (cmd/nucasim, cmd/paperbench, cmd/nucaopt, cmd/nucad), so flag
// conventions stay identical across binaries.
package cliutil

import (
	"flag"
	"fmt"
	"runtime"
)

// Jobs registers the standard -j worker-count flag on fs and returns its
// destination. Every binary with a worker pool registers exactly this
// flag; validate the parsed value with ResolveJobs.
func Jobs(fs *flag.FlagSet) *int {
	return fs.Int("j", 0, "parallel runs (0 = one per core, 1 = sequential)")
}

// ResolveJobs validates and resolves a parsed -j value: negative counts
// are rejected with a clear error, 0 resolves to one worker per core
// (GOMAXPROCS), and positive counts pass through unchanged.
func ResolveJobs(j int) (int, error) {
	if j < 0 {
		return 0, fmt.Errorf("invalid -j %d: want 0 (one worker per core) or a positive worker count", j)
	}
	if j == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return j, nil
}
