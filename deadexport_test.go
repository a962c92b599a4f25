package nucanet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllowed lists the exported functions that may live under
// internal/ with no non-test reference, each with the reason it stays.
var deadExportAllowed = map[string]string{
	"IsBoolFlag":       "reached through the flag package's boolFlag interface",
	"MustNew":          "cache.MustNew / network.MustNew: fixture many tests build on",
	"NumBanks":         "Topology.NumBanks: fixture many tests build on",
	"HitWays":          "Latency.HitWays: fixture many tests build on",
	"DefaultExpConfig": "fixture many tests build on",
	"PathLatency":      "reserved for ROADMAP items 3/4c (zero-load latency component)",
}

// TestNoDeadExports keeps the rule "every line has a caller": an exported
// func or method declared in a non-test file under internal/ must be
// named by some non-test file under internal/, cmd/, examples/ or
// benchmark/. The match is by name, so a method counts as used when any
// same-named selector or interface method exists.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // exported func name -> first declaration
	used := map[string]bool{}
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declNames := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declNames[fd.Name] = true
				if _, seen := declared[fd.Name.Name]; root == "internal" && fd.Name.IsExported() && !seen {
					declared[fd.Name.Name] = fset.Position(fd.Pos())
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declNames[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var dead []string
	for name, pos := range declared {
		if !used[name] && deadExportAllowed[name] == "" {
			dead = append(dead, pos.String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, give it one, or allowlist it with a reason", d)
	}
	for name := range deadExportAllowed {
		if _, ok := declared[name]; !ok || used[name] {
			t.Errorf("allowlist entry %q is stale: no longer declared, or now has a caller", name)
		}
	}
}
