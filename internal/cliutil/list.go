package cliutil

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"nucanet/internal/config"
	"nucanet/internal/core"
	"nucanet/internal/topology"
)

// listCategories is the dispatch table of the unified -list flag, in
// print order for "all". Every entry reads a live registry, so anything
// added with RegisterPolicy / router.Register / topology.Register /
// RegisterExperiment / ExtraDesigns shows up with no flag plumbing.
var listCategories = []struct {
	name  string
	print func(io.Writer)
}{
	{"designs", ListDesigns},
	{"topologies", ListTopologies},
	{"routers", ListRouters},
	{"policies", ListSchemes},
	{"experiments", ListExperiments},
}

// ListCategoryNames returns the categories -list accepts, in print order.
func ListCategoryNames() []string {
	names := make([]string, len(listCategories))
	for i, c := range listCategories {
		names[i] = c.name
	}
	return names
}

// ListFlag is the unified registry catalogue flag shared by the
// binaries: `-list=<what>` prints one catalogue, `-list=all` prints them
// all, and a bare `-list` prints the binary's default category (which
// keeps paperbench's historical `-list` = experiments working).
type ListFlag struct {
	what string // "" until set
	dflt string
}

// List registers the unified -list flag on fs; dflt is the category a
// bare -list selects.
func List(fs *flag.FlagSet, dflt string) *ListFlag {
	l := &ListFlag{dflt: dflt}
	fs.Var(l, "list", "print a registry catalogue and exit: "+
		strings.Join(ListCategoryNames(), ", ")+", or all (bare -list = "+dflt+")")
	return l
}

func (l *ListFlag) String() string { return l.what }

// Set accepts a category name; the flag package passes "true" for a bare
// -list, which selects the default category.
func (l *ListFlag) Set(s string) error {
	if s == "true" {
		l.what = l.dflt
		return nil
	}
	l.what = s
	return nil
}

// IsBoolFlag lets a bare -list parse (as the default category); use
// -list=<what> to name one explicitly.
func (l *ListFlag) IsBoolFlag() bool { return true }

// Handle prints the requested catalogue(s). It returns true when the
// flag was given (the binary should exit afterwards) and an error for an
// unknown category.
func (l *ListFlag) Handle(w io.Writer) (bool, error) {
	if l.what == "" {
		return false, nil
	}
	if l.what == "all" {
		for i, c := range listCategories {
			if i > 0 {
				fmt.Fprintln(w)
			}
			c.print(w)
		}
		return true, nil
	}
	for _, c := range listCategories {
		if c.name == l.what {
			c.print(w)
			return true, nil
		}
	}
	return true, fmt.Errorf("unknown -list category %q (want %s, or all)",
		l.what, strings.Join(ListCategoryNames(), ", "))
}

// ListDesigns prints the design catalogue: Table 3's A-F plus the extra
// registered families (ring, cmesh, hierarchical chiplets).
func ListDesigns(w io.Writer) {
	fmt.Fprintln(w, "catalogue designs:")
	for _, d := range append(config.Designs(), config.ExtraDesigns()...) {
		fmt.Fprintf(w, "  %-4s %s\n", d.ID, d.Description)
	}
}

// ListTopologies prints the registered topology builders.
func ListTopologies(w io.Writer) {
	fmt.Fprintln(w, "registered topology families:")
	for _, name := range topology.Names() {
		fmt.Fprintf(w, "  %s\n", name)
	}
}

// ListExperiments prints the experiment registry — the same catalogue
// paperbench -exp and nucad's GET /v1/experiments dispatch through.
func ListExperiments(w io.Writer) {
	fmt.Fprintln(w, "registered experiments:")
	for _, name := range core.ExperimentNames() {
		e, err := core.ExperimentByName(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %-10s %s\n", e.Name, e.About)
	}
}
