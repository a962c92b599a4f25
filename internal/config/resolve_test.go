package config

import (
	"strings"
	"testing"
)

func TestResolveByID(t *testing.T) {
	for _, want := range Designs() {
		d, err := Resolve(want.ID, nil)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", want.ID, err)
		}
		if d.ID != want.ID || d.Description != want.Description {
			t.Fatalf("Resolve(%q) returned design %q", want.ID, d.ID)
		}
	}
}

func TestResolveUnknownID(t *testing.T) {
	if _, err := Resolve("Z", nil); err == nil || !strings.Contains(err.Error(), "unknown design") {
		t.Fatalf("Resolve(Z): got %v, want unknown-design error", err)
	}
	if _, err := Resolve("", nil); err == nil {
		t.Fatal("Resolve(\"\"): expected an error")
	}
}

func TestResolveOverrideWins(t *testing.T) {
	ad, err := DesignByID("F")
	if err != nil {
		t.Fatal(err)
	}
	ad.ID = "F-custom"
	// The id names a different (and valid) design; the override must win.
	d, err := Resolve("A", &ad)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "F-custom" {
		t.Fatalf("override lost: resolved %q", d.ID)
	}
	if d == &ad {
		t.Fatal("Resolve returned the caller's pointer, not a copy")
	}
	d.ID = "mutated"
	if ad.ID != "F-custom" {
		t.Fatal("mutating the resolved design changed the caller's override")
	}
}

func TestResolveValidatesOverride(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Design)
		want   string
	}{
		{"no banks", func(d *Design) { d.Banks = nil }, "no banks"},
		{"bank/row mismatch", func(d *Design) { d.Banks = d.Banks[:3] }, "3 bank specs for 16 column positions"},
		{"zero ways", func(d *Design) {
			for i := range d.Banks {
				d.Banks[i].Ways = 0
			}
		}, "config A: position 0: bank 64KB/0-way: 0 ways, want 1 to 254"},
		{"zero size", func(d *Design) {
			for i := range d.Banks {
				d.Banks[i].SizeKB = 0
			}
		}, "config A: position 0: bank 0KB/1-way: no Table 1 latency for 0 KB (want 64, 128, 256 or 512)"},
	} {
		bad, err := DesignByID("A")
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(&bad)
		if _, err := Resolve("", &bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Resolve returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
