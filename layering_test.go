package nucanet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// interconnectPkgs are the network layer's packages and cacheLayerPkgs
// the packages built on top of it. The paper keeps the interconnect and
// the cache system apart; so does the import graph.
var (
	interconnectPkgs = []string{"flit", "topology", "routing", "router", "network"}
	cacheLayerPkgs   = []string{"bank", "mem", "cache", "cmp", "cpu", "trace", "config", "core"}
)

// TestInterconnectLayering fails when a network-layer package under
// internal/ reaches a cache-layer package, directly or through other
// internal packages, counting only non-test files (what go list -deps
// sees).
func TestInterconnectLayering(t *testing.T) {
	const prefix = "nucanet/internal/"
	imports := map[string]map[string]bool{} // package dir under internal/ -> internal imports
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "internal"+string(filepath.Separator))))
		if imports[pkg] == nil {
			imports[pkg] = map[string]bool{}
		}
		for _, im := range f.Imports {
			p, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				return err
			}
			if dep, ok := strings.CutPrefix(p, prefix); ok {
				imports[pkg][dep] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{}
	for _, p := range cacheLayerPkgs {
		forbidden[p] = true
	}
	for _, root := range interconnectPkgs {
		if imports[root] == nil {
			t.Errorf("internal/%s: no such package", root)
			continue
		}
		// via[p] is the package that first reached p from root.
		via := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			deps := make([]string, 0, len(imports[p]))
			for d := range imports[p] {
				deps = append(deps, d)
			}
			sort.Strings(deps)
			for _, d := range deps {
				if _, seen := via[d]; seen {
					continue
				}
				via[d] = p
				if !forbidden[d] {
					queue = append(queue, d)
					continue
				}
				chain := []string{d}
				for q := p; q != ""; q = via[q] {
					chain = append([]string{q}, chain...)
				}
				t.Errorf("interconnect package %s reaches cache-layer package %s: %s",
					root, d, strings.Join(chain, " -> "))
			}
		}
	}
}

// TestNoLinkTimeCatalogues fails when a non-test Go file under internal/
// or cmd/ declares func init or blank-imports a nucanet package. Every
// catalogue (topology families, routing algorithms, router engines,
// replacement policies, experiments) is a literal table in the package
// that owns it, so what a binary lists never depends on which packages
// it links.
func TestNoLinkTimeCatalogues(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, im := range f.Imports {
				if im.Name != nil && im.Name.Name == "_" && strings.HasPrefix(im.Path.Value, `"nucanet/`) {
					t.Errorf("%s: blank import of %s", fset.Position(im.Pos()), im.Path.Value)
				}
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "init" {
					t.Errorf("%s: func init", fset.Position(fn.Pos()))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
