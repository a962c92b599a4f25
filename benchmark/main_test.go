package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {1, 100}, {0.01, 1}} {
		if got, err := percentile(samples, c.p, 0); err != nil || got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if samples[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	// p90 of 100 samples has 10 beyond it; of 29 only 2.
	if _, err := percentile(samples, 0.9, 10); err != nil {
		t.Errorf("p90 of 100 samples refused with 10 required beyond: %v", err)
	}
	if _, err := percentile(samples, 0.9, 11); err == nil {
		t.Error("p90 of 100 samples accepted with 11 required beyond")
	}
	if _, err := percentile(samples[:29], 0.9, fullScale.tailBeyond); err == nil {
		t.Error("p90 of 29 samples accepted at the full scale's tail requirement")
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("percentile of no samples accepted")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// op 1: root 0..100 with children a 10..30 and b 20..50 (overlapping:
	// together they cover 10..50) and c 90..120 (clipped to 90..100);
	// a has its own child a1 12..20. op 2 re-uses the names.
	spans := []span{
		{Name: "root", Op: 1, Start: 0, End: 100},
		{Name: "a", Op: 1, Parent: "root", Start: 10, End: 30},
		{Name: "b", Op: 1, Parent: "root", Start: 20, End: 50},
		{Name: "c", Op: 1, Parent: "root", Start: 90, End: 120},
		{Name: "a1", Op: 1, Parent: "a", Start: 12, End: 20},
		{Name: "root", Op: 2, Start: 0, End: 40},
		{Name: "a", Op: 2, Parent: "root", Start: 0, End: 40},
	}
	want := map[spanKey]time.Duration{
		{1, "root"}: 50, {1, "a"}: 12, {1, "b"}: 30, {1, "c"}: 30, {1, "a1"}: 8,
		{2, "root"}: 0, {2, "a"}: 40,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestOpListsAreAFunctionOfTheSeed(t *testing.T) {
	type op struct {
		seed uint64
		cold bool
	}
	list := func(seed uint64) []op {
		var out []op
		for _, w := range workloads {
			for i := 0; i < 200; i++ {
				if w.serve {
					for c := 0; c < serveClients; c++ {
						s, cold := serveOp(seed, c, i)
						out = append(out, op{s, cold})
					}
				} else {
					out = append(out, op{w.directOp(seed, i).Seed, false})
				}
			}
		}
		return out
	}
	a, b, c := list(7), list(7), list(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different op lists")
	}
	same := 0
	for i := range a {
		if a[i].seed == c[i].seed {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 7 and 8 share %d of %d op seeds", same, len(a))
	}

	// serve_mixed: exactly serveColdPerBlock cold requests per block, cold
	// keys never repeat, warm keys all come from the working set.
	ws := map[uint64]bool{}
	for j := 0; j < serveWorkingSet; j++ {
		ws[workingSetSeed(7, j)] = true
	}
	seen := map[uint64]bool{}
	for c := 0; c < serveClients; c++ {
		for blk := 0; blk < 50; blk++ {
			cold := 0
			for i := blk * serveBlock; i < (blk+1)*serveBlock; i++ {
				s, isCold := serveOp(7, c, i)
				switch {
				case isCold && (seen[s] || ws[s]):
					t.Fatalf("client %d request %d: cold key %d was seen before", c, i, s)
				case isCold:
					cold++
					seen[s] = true
				case !ws[s]:
					t.Fatalf("client %d request %d: warm key %d is not in the working set", c, i, s)
				}
			}
			if cold != serveColdPerBlock {
				t.Fatalf("client %d block %d has %d cold requests, want %d", c, blk, cold, serveColdPerBlock)
			}
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if names[n] {
			t.Errorf("name %q is used twice", n)
		}
		names[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		checkName(d.Name)
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}

	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name)
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", d)
		}
	}

	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
}

// TestExpectedFingerprints checks the comparison itself on the committed
// file: the recorded fingerprint passes, any other fails the op.
func TestExpectedFingerprints(t *testing.T) {
	for _, w := range workloads {
		raw, err := os.ReadFile(expectedPath(w, defaultSeed))
		if err != nil {
			t.Fatal(err)
		}
		var key, fp uint64
		first, _, _ := strings.Cut(string(raw), "\n")
		if _, err := fmt.Sscanf(first, "%d %x", &key, &fp); err != nil {
			t.Fatalf("%s: %v", expectedPath(w, defaultSeed), err)
		}
		p := &pass{ops: []opRecord{{key: key, fp: fp}, {key: key, fp: fp + 1}}}
		if err := checkExpected(w, defaultSeed, p); err != nil {
			t.Fatal(err)
		}
		if p.ops[0].failed || !p.ops[1].failed {
			t.Errorf("%s: right fingerprint failed=%v, wrong fingerprint failed=%v", w.Name, p.ops[0].failed, p.ops[1].failed)
		}
		other := &pass{ops: []opRecord{{key: key, fp: fp + 1}}}
		if err := checkExpected(w, defaultSeed+1, other); err != nil || other.ops[0].failed {
			t.Errorf("%s: the expected file was applied to another seed", w.Name)
		}
	}
}

// TestSmoke drives every workload's timed and traced pass at smoke size
// through the command's own entry point.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"--workload", w.Name, "--seed", "5", "--seconds", "1", "--trace", trace, "-smoke"}, &stdout, &stderr); code != 0 {
				t.Fatalf("%s -trace %s: exit %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s -trace %s: last line is not the result: %v", w.Name, trace, err)
			}
			defs, file := endToEnd, w.Name+".e2e.json"
			if trace == "1" {
				defs, file = perLayer, w.Name+".layers.json"
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 || len(res.Metrics) != len(defs) {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d, %d metrics (want %d)",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s -trace %s: metric %s missing or in the wrong unit: %+v", w.Name, trace, d.Name, m)
				} else if trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			var rep report
			raw, err := os.ReadFile(filepath.Join(outDir, file))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Host.GoVersion == "" || rep.Host.NumCPU == 0 || rep.Host.GOMAXPROCS == 0 || rep.Host.CPU == "" || rep.Host.GitRev == "" || rep.Harness != harnessVersion {
				t.Errorf("%s: result file lacks the host fingerprint: %+v", file, rep.Host)
			}
		}
		spans, err := os.ReadFile(filepath.Join(outDir, w.Name+".trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{`"core.Prepare"`, `"core.NewInstance"`, `"core.RunToCompletion"`, `"cache.NewPrebuilt"`, `"probe"`} {
			if !bytes.Contains(spans, []byte(name)) {
				t.Errorf("%s: no %s span in the trace", w.Name, name)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "-1"}, {"stray"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}
