package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo goes into every result file, so numbers taken on different
// hosts, toolchains or commits are never compared without it showing.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPU:        procField("/proc/cpuinfo", "model name"),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
	}
	// The harness runs from benchmark/; only ask git when the parent is a
	// work tree (a benchmark checkout is a plain directory).
	if _, err := os.Stat("../.git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.GitRev = strings.TrimSpace(string(out))
			st, err := exec.Command("git", "status", "--porcelain").Output()
			h.GitDirty = err != nil || len(st) > 0
		}
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
