package nucanet

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeOnlyAllowed lists the fields under internal/ that non-test code
// may write without reading, keyed pkg.Type.field, each with its reason.
var writeOnlyAllowed = map[string]string{
	"router.Router.ticks":          "parking-exactness instrument: tests compare it with the cycles a router was ticked",
	"router.Router.unready":        "parking-exactness instrument: tests check a parked router had nothing to do",
	"flit.PoolStats.Allocated":     "pool-reuse instrument read by the allocation tests",
	"routing.Hop.To":               "names the hop's endpoint in the verifier's tables the tests inspect",
	"trace.Profile.FP":             "Table 2 column: the floating-point share of the benchmark's instructions",
	"cache.Request.DataAt":         "the cycle a request's data arrived, the observable the protocol tests pin",
	"core.CoreResult.Instructions": "per-core instruction count, the numerator of the core's IPC for callers",
}

// TestNoWriteOnlyFields keeps the rule "every line has a reader": a field
// of a struct type declared in a non-test file under internal/ that
// non-test code under internal/, cmd/, examples/ or benchmark/ writes
// (assigns, bumps, or sets in a composite literal) must also be read
// there. A struct tag, an embedded field, a conversion between struct
// types, and a struct's use as a map key or in a comparison count as
// reads. Delete the field, read it, or allowlist it with a reason.
func TestNoWriteOnlyFields(t *testing.T) {
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, std: importer.Default(),
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		}}
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				_, err = l.Import("nucanet/" + filepath.ToSlash(path))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	readAll := func(typ types.Type) {
		if st, ok := typ.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				read[st.Field(i).Origin()] = true
			}
		}
	}
	for _, tv := range l.info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			readAll(m.Key())
		}
	}
	for _, f := range l.files {
		lhs := map[ast.Expr]bool{} // assignment and ++/-- targets
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs[ast.Unparen(e)] = true
				}
			case *ast.IncDecStmt:
				lhs[ast.Unparen(n.X)] = true
			case *ast.CompositeLit:
				st, ok := l.info.Types[n].Type.Underlying().(*types.Struct)
				for i, e := range n.Elts {
					if kv, isKV := e.(*ast.KeyValueExpr); ok && isKV {
						written[l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
					} else if ok {
						written[st.Field(i).Origin()] = true
					}
				}
			case *ast.SelectorExpr:
				if sel := l.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
					v := sel.Obj().(*types.Var).Origin()
					written[v] = written[v] || lhs[n]
					read[v] = read[v] || !lhs[n]
				}
			case *ast.CallExpr:
				if tv := l.info.Types[n.Fun]; tv.IsType() && len(n.Args) == 1 {
					readAll(tv.Type)
					readAll(l.info.Types[n.Args[0]].Type)
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					readAll(l.info.Types[n.X].Type)
				}
			}
			return true
		})
	}

	writeOnly := map[string]string{} // pkg.Type.field -> declaration
	for path, pkg := range l.pkgs {
		if pkg == nil || !strings.HasPrefix(path, "nucanet/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); written[f] && !read[f] && !f.Embedded() && st.Tag(i) == "" {
					writeOnly[pkg.Name()+"."+name+"."+f.Name()] = l.fset.Position(f.Pos()).String()
				}
			}
		}
	}
	var bad []string
	for key, pos := range writeOnly {
		if writeOnlyAllowed[key] == "" {
			bad = append(bad, pos+": "+key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s is written but never read outside tests: delete it, read it, or allowlist it with a reason", b)
	}
	for key := range writeOnlyAllowed {
		if writeOnly[key] == "" {
			t.Errorf("allowlist entry %q is stale: no longer declared, never written, or now read", key)
		}
	}
}

// loader type-checks the module's packages from their non-test sources,
// importing the standard library through importer.Default. Every checked
// file shares one types.Info, so a field's uses are visible across
// packages. A directory with no non-test Go file loads as nil.
type loader struct {
	fset  *token.FileSet
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
	files []*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "nucanet/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	l.pkgs[path] = nil
	names, err := filepath.Glob(filepath.Join(filepath.FromSlash(strings.TrimPrefix(path, "nucanet/")), "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files = pkg, append(l.files, files...)
	return pkg, nil
}
