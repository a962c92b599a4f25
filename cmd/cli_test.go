// Package cmd holds the end-to-end gate over the command-line binaries:
// one test builds nucasim, paperbench, nucaopt, nucad and nucaload plus
// the two example programs and drives them the way a user (or a script)
// would, so flag wiring, exit codes, the committed stdout goldens and the
// daemon's boot / serve / drain cycle cannot rot outside `go test ./...`.
// It is skipped under -short.
package cmd

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// run executes one built binary and returns its output and exit code.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var so, se bytes.Buffer
	c := exec.Command(bin, args...)
	c.Stdout, c.Stderr = &so, &se
	if err := c.Run(); err != nil && c.ProcessState == nil {
		t.Fatalf("%s: %v", filepath.Base(bin), err)
	}
	return so.String(), se.String(), c.ProcessState.ExitCode()
}

var (
	runTiming  = regexp.MustCompile(` \[[0-9.]+s\]`)
	wallTiming = regexp.MustCompile(` \(wall [0-9.]+s\)`)
)

func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the five binaries and two examples")
	}
	tmp := t.TempDir()
	// `go build` reads the sources, not this test, so the test cache
	// cannot see them change; it does hash the names, sizes and mtimes of
	// every directory a test lists. Walking the source trees re-runs the
	// test after any edit instead of replaying a cached pass.
	for _, root := range []string{".", "../internal", "../examples"} {
		if err := filepath.WalkDir(root, func(string, os.DirEntry, error) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	build := exec.Command("go", "build", "-o", tmp+string(filepath.Separator),
		"./nucasim", "./paperbench", "./nucaopt", "./nucad", "./nucaload",
		"../examples/quickstart", "../examples/customworkload")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bin := func(name string) string { return filepath.Join(tmp, name) }
	tracePath := filepath.Join(tmp, "trace.jsonl")
	golden := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	for _, tc := range []struct {
		name, bin string
		args      []string
		exit      int
		stdout    string   // when set: the exact stdout, per-run " [N.NNs]" timings stripped
		mentions  []string // substrings stdout+stderr must carry
		trace     string   // when set: a JSONL trace the run must have written
	}{
		// Every telemetry probe on, two workers: the flag trio reaches the
		// engine and the trace writer (cliutil.WriteTraces).
		{name: "telemetry run writes a trace", bin: "nucasim", trace: tracePath,
			args: []string{"-design", "A", "-n", "500", "-j", "2", "-heatmap", "-sample", "100", "-trace", tracePath}},
		// Full-system CMP through the real CLI: flags, hierarchical
		// topology build, bridge-ring routing, fabric injection, directory
		// attribution and per-core reporting, pinned to the golden.
		{name: "4-core H2 directory run equals the golden", bin: "nucasim", stdout: golden("nucasim/testdata/cmp_smoke.golden"),
			args: []string{"-design", "H2", "-policy", "directory", "-cores", "4", "-n", "500"}},
		{name: "cmp sweep", bin: "paperbench", args: []string{"-exp", "cmp", "-n", "300"},
			mentions: []string{"=== CMP sharing contention"}},
		// Every registered engine over designs A/D/F/R under both schemes:
		// registry, Supports gating, area scaling, dominance check.
		{name: "pareto sweep", bin: "paperbench", args: []string{"-exp", "pareto", "-n", "400"},
			mentions: []string{"=== Pareto sweep"}},
		// Static verification of the whole design catalogue: the
		// channel-dependence check for the buffered default engine, the
		// productive-route livelock check for the deflecting one.
		{name: "verify routing", bin: "nucasim", args: []string{"-verify-routing"},
			mentions: []string{"design H2  deadlock-free"}},
		{name: "verify routing, bufferless", bin: "nucasim", args: []string{"-router", "bufferless", "-verify-routing"},
			mentions: []string{"design H2  livelock-free"}},
		// The examples are the documented way into the library API (core.Run;
		// cache.System with completion callbacks and the golden model): both
		// are deterministic, so their stdout is pinned whole.
		{name: "quickstart example", bin: "quickstart", stdout: golden("../examples/quickstart/testdata/stdout.golden")},
		{name: "customworkload example", bin: "customworkload", stdout: golden("../examples/customworkload/testdata/stdout.golden")},
		// Unknown names exit 1 and name the catalogue they missed.
		{name: "unknown design", bin: "nucasim", args: []string{"-design", "Z"}, exit: 1,
			mentions: []string{`unknown design "Z"`, "[A B C D E F R G H2]"}},
		{name: "unknown benchmark", bin: "nucasim", args: []string{"-bench", "nope"}, exit: 1,
			mentions: []string{`unknown benchmark "nope"`, "applu", "vpr"}},
		{name: "unknown experiment", bin: "paperbench", args: []string{"-exp", "nope"}, exit: 1,
			mentions: []string{`unknown experiment "nope"`, "t1 t2 t3 t4 f7 f8 f9 headline"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, exit := run(t, bin(tc.bin), tc.args...)
			if exit != tc.exit {
				t.Fatalf("exit %d, want %d\nstderr: %s", exit, tc.exit, stderr)
			}
			if got := runTiming.ReplaceAllString(stdout, ""); tc.stdout != "" && got != tc.stdout {
				t.Errorf("output drifted from the committed golden:\n--- got\n%s--- want\n%s", got, tc.stdout)
			}
			for _, m := range tc.mentions {
				if !strings.Contains(stdout+stderr, m) {
					t.Errorf("output does not mention %q:\n%s%s", m, stdout, stderr)
				}
			}
			if tc.trace != "" {
				data, err := os.ReadFile(tc.trace)
				if err != nil || !bytes.HasPrefix(data, []byte(`{"ev":"run","design":"A","bench":"gcc","seed":42,"events":`)) {
					t.Errorf("trace: err %v, starts %.80q; want the run's meta line", err, data)
				}
			}
		})
	}

	// Tiny-budget placement search, twice with the same seed: identical
	// output (wall clock stripped) down to the best candidate's canonical
	// encoding and hash pins the optimizer's end-to-end determinism —
	// annealing schedule, safety gating, area gating, batch scoring.
	t.Run("nucaopt is deterministic and names a best candidate", func(t *testing.T) {
		var outs [2]string
		for i := range outs {
			stdout, stderr, exit := run(t, bin("nucaopt"), "-budget", "6", "-wave", "4", "-screen", "60", "-confirm", "150", "-q")
			if exit != 0 {
				t.Fatalf("exit %d\nstderr: %s", exit, stderr)
			}
			outs[i] = wallTiming.ReplaceAllString(stdout, "")
		}
		if outs[0] != outs[1] {
			t.Errorf("same seed produced different searches:\n--- first\n%s--- second\n%s", outs[0], outs[1])
		}
		lines := strings.Split(strings.TrimSpace(outs[0]), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, "best: ") {
			t.Errorf("output does not end in a best-candidate line:\n%s", outs[0])
		}
	})

	// Boot the daemon on an ephemeral port, fire a short mixed load at it
	// that must see content-addressed cache hits, then SIGTERM: listener,
	// scheduler, cache and graceful drain end to end.
	t.Run("nucad serves nucaload and drains on SIGTERM", func(t *testing.T) {
		addrFile, logFile := filepath.Join(tmp, "nucad.addr"), filepath.Join(tmp, "nucad.log")
		logW, err := os.Create(logFile)
		if err != nil {
			t.Fatal(err)
		}
		defer logW.Close()
		daemonLog := func() string {
			data, _ := os.ReadFile(logFile)
			return string(data)
		}
		daemon := exec.Command(bin("nucad"), "-addr", "127.0.0.1:0", "-addr-file", addrFile)
		daemon.Stderr = logW
		if err := daemon.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- daemon.Wait() }()
		stopped := false
		defer func() {
			if !stopped {
				daemon.Process.Kill()
				<-exited
			}
		}()

		var addr []byte
		for deadline := time.Now().Add(10 * time.Second); len(addr) == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("nucad did not come up\n%s", daemonLog())
			}
			time.Sleep(20 * time.Millisecond)
			addr, _ = os.ReadFile(addrFile)
		}
		stdout, stderr, exit := run(t, bin("nucaload"), "-addr", "http://"+string(addr),
			"-n", "60", "-c", "4", "-clients", "3", "-unique", "6", "-accesses", "300", "-require-hits")
		if exit != 0 {
			t.Errorf("nucaload exit %d\n%s%s", exit, stdout, stderr)
		}
		if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-exited:
			stopped = true
			if err != nil || !strings.Contains(daemonLog(), "drained, bye") {
				t.Errorf("nucad after SIGTERM: %v, want exit 0 and a drain log\n%s", err, daemonLog())
			}
		case <-time.After(30 * time.Second):
			t.Error("nucad did not exit within 30s of SIGTERM")
		}
	})
}
