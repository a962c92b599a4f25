package cliutil

import (
	"strings"
	"testing"
)

// parseList parses args against a fresh flag set carrying only the
// unified -list flag and returns it.
func parseList(t *testing.T, dflt string, args ...string) *ListFlag {
	t.Helper()
	fs := quietFlagSet()
	l := List(fs, dflt)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestListFlagAbsent(t *testing.T) {
	l := parseList(t, "experiments")
	var b strings.Builder
	done, err := l.Handle(&b)
	if done || err != nil || b.Len() != 0 {
		t.Fatalf("absent -list: done=%v err=%v out=%q", done, err, b.String())
	}
}

// TestListFlagBareSelectsDefault pins the alias contract: a bare -list
// behaves exactly like the binary's historical listing (paperbench's
// -list = experiments).
func TestListFlagBareSelectsDefault(t *testing.T) {
	l := parseList(t, "experiments", "-list")
	var b strings.Builder
	done, err := l.Handle(&b)
	if !done || err != nil {
		t.Fatalf("bare -list: done=%v err=%v", done, err)
	}
	if !strings.Contains(b.String(), "registered experiments:") {
		t.Fatalf("bare -list with default experiments printed:\n%s", b.String())
	}
}

// TestListFlagCategories pins that every advertised category prints its
// catalogue, read from the owning package: rows added there appear with
// no changes here.
func TestListFlagCategories(t *testing.T) {
	wantSubstring := map[string]string{
		"designs":     "H2", // the hierarchical chiplet design, from ExtraDesigns
		"topologies":  "mesh",
		"routers":     "bufferless",
		"policies":    "directory", // the CMP ownership policy
		"experiments": "cmp",       // the sharing-contention experiment
	}
	for _, cat := range ListCategoryNames() {
		l := parseList(t, "experiments", "-list="+cat)
		var b strings.Builder
		done, err := l.Handle(&b)
		if !done || err != nil {
			t.Fatalf("-list=%s: done=%v err=%v", cat, done, err)
		}
		if want := wantSubstring[cat]; want == "" || !strings.Contains(b.String(), want) {
			t.Errorf("-list=%s output missing %q:\n%s", cat, want, b.String())
		}
	}
}

func TestListFlagAllPrintsEveryCategory(t *testing.T) {
	l := parseList(t, "experiments", "-list=all")
	var b strings.Builder
	done, err := l.Handle(&b)
	if !done || err != nil {
		t.Fatalf("-list=all: done=%v err=%v", done, err)
	}
	for _, s := range []string{"catalogue designs:", "registered topology families:",
		"registered router engines:", "registered replacement policies:", "registered experiments:"} {
		if !strings.Contains(b.String(), s) {
			t.Errorf("-list=all missing section %q", s)
		}
	}
}

func TestListFlagRejectsUnknownCategory(t *testing.T) {
	l := parseList(t, "experiments", "-list=bogus")
	var b strings.Builder
	done, err := l.Handle(&b)
	if !done || err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("-list=bogus: done=%v err=%v", done, err)
	}
}
