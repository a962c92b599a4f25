package registry

import (
	"reflect"
	"strings"
	"testing"
)

func foldLower(s string) string { return strings.ReplaceAll(strings.ToLower(s), "-", "") }

// filled returns a registry holding b, c, a (indices 0, 1, 2) under an
// optional fold.
func filled(fold func(string) string) *Registry[int] {
	r := New[int]("pkg", "thing", fold)
	for i, name := range []string{"b-One", "c", "a"} {
		if got := r.Register(name, 10+i); got != i {
			panic("Register returned the wrong index")
		}
	}
	return r
}

func TestRegisterPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fold func(string) string
		reg  string
		want string
	}{
		{"empty name", nil, "", `pkg: thing registered with an empty name`},
		{"name folding to empty", foldLower, "--", `pkg: thing registered with an empty name`},
		{"duplicate", nil, "c", `pkg: thing "c" registered twice`},
		{"folded-key collision", foldLower, "B-ONE", `pkg: thing "B-ONE" registered twice`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := filled(tc.fold)
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic = %v, want %q", got, tc.want)
				}
				if r.Len() != 3 {
					t.Fatalf("rejected registration changed the registry: %v", r.Names())
				}
			}()
			r.Register(tc.reg, 99)
		})
	}
	// Without a fold the same spellings are distinct names.
	if i := filled(nil).Register("B-ONE", 99); i != 3 {
		t.Fatalf("unfolded registry: B-ONE got index %d, want 3", i)
	}
}

func TestLookup(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fold   func(string) string
		lookup string
		want   int
		ok     bool
	}{
		{"exact", nil, "b-One", 10, true},
		{"last", nil, "a", 12, true},
		{"case differs, no fold", nil, "B-one", 0, false},
		{"case and dash differ, folded", foldLower, "BONE", 10, true},
		{"miss", foldLower, "d", 0, false},
		{"empty", nil, "", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := filled(tc.fold)
			v, ok := r.Lookup(tc.lookup)
			if v != tc.want || ok != tc.ok {
				t.Fatalf("Lookup(%q) = %d, %v; want %d, %v", tc.lookup, v, ok, tc.want, tc.ok)
			}
			i, iok := r.Index(tc.lookup)
			if iok != tc.ok || (ok && r.At(i) != tc.want) {
				t.Fatalf("Index(%q) = %d, %v disagrees with Lookup", tc.lookup, i, iok)
			}
		})
	}
}

// TestNameListings pins the two orders and that both are copies: Names
// is registration order with the spelling as registered, Sorted lexical.
func TestNameListings(t *testing.T) {
	r := filled(foldLower)
	if got, want := r.Names(), []string{"b-One", "c", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if got, want := r.Sorted(), []string{"a", "b-One", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Sorted() = %v, want %v", got, want)
	}
	r.Names()[0], r.Sorted()[0] = "x", "x"
	if r.Name(0) != "b-One" || r.Sorted()[0] != "a" {
		t.Fatal("a returned listing aliases the registry's own names")
	}
}

func TestUnknownListsCatalogue(t *testing.T) {
	r := filled(nil)
	if got, want := r.Unknown("torus", r.Sorted()).Error(),
		`pkg: unknown thing "torus" (registered: [a b-One c])`; got != want {
		t.Fatalf("sorted catalogue:\n got %s\nwant %s", got, want)
	}
	if got, want := r.Unknown("torus", strings.Join(r.Names(), ", ")).Error(),
		`pkg: unknown thing "torus" (registered: b-One, c, a)`; got != want {
		t.Fatalf("joined catalogue:\n got %s\nwant %s", got, want)
	}
}

// TestLookupAllocFree: look-ups sit on per-run (not per-access) paths,
// but a run resolves several names, so hits and misses allocate nothing
// — also under a fold, for a name already in folded form.
func TestLookupAllocFree(t *testing.T) {
	plain, folded := filled(nil), filled(foldLower)
	if n := testing.AllocsPerRun(100, func() {
		plain.Lookup("b-One")
		plain.Lookup("nope")
		plain.Index("a")
		folded.Lookup("bone")
		folded.Index("nope")
		_, _ = plain.At(1), plain.Name(1)
	}); n != 0 {
		t.Fatalf("look-ups allocate %.1f objects per round, want 0", n)
	}
}
