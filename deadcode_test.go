package nucanet

import (
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// deadAllowed lists the declarations under internal/ that the dead-code
// guard reports but that stay, keyed pkg.name for a package-level
// declaration and pkg.Type.name for a method or a field, each with its
// reason.
var deadAllowed = map[string]string{
	"cache.MustNew":                "fixture many tests build a cache system on",
	"network.MustNew":              "fixture many tests build a network on",
	"topology.Topology.NumBanks":   "fixture many tests build on",
	"cache.System.Bank":            "test oracle: the conformance harness and the cache and core tests read or plant a bank's blocks through it",
	"cache.DirStats.Verify":        "test oracle: the directory's reference check against the banks, which the conformance harness and the cache and core tests enforce",
	"stats.Latency.HitWays":        "the hit-way histogram, kept for the shift-share split of the fidelity gap (ROADMAP item 13)",
	"routing.PathLatency":          "zero-load network latency, kept for the analytic zero-load model (ROADMAP item 5)",
	"cliutil.ListFlag.IsBoolFlag":  "the flag package reaches it through its unexported boolFlag interface",
	"router.Router.ticks":          "parking-exactness instrument: tests compare it with the cycles a router was ticked",
	"router.Router.unready":        "parking-exactness instrument: tests check a parked router had nothing to do",
	"flit.PoolStats.Allocated":     "pool-reuse instrument read by the allocation tests",
	"routing.Hop.To":               "names the hop's endpoint in the verifier's tables the tests inspect",
	"trace.Profile.FP":             "Table 2 column: the floating-point share of the benchmark's instructions",
	"cache.Request.DataAt":         "the cycle a request's data arrived, the observable the protocol tests pin",
	"core.CoreResult.Instructions": "per-core instruction count, the numerator of the core's IPC for callers",
}

// deadOnce loads the module for the two guards below, so it is parsed
// and type-checked once per test binary.
var deadOnce = sync.OnceValues(func() (deadReport, error) { return deadCode(".") })

// TestNoDeadExports keeps the rule "nothing exists for a test alone" for
// declarations: every package-level func, type, const or var under
// internal/, and every method of a named type there, exported or not,
// has a use in non-test code. Delete what it reports, give it a use, or
// allowlist it with a reason.
func TestNoDeadExports(t *testing.T) {
	dead, err := deadOnce()
	if err != nil {
		t.Fatal(err)
	}
	checkDead(t, dead.decls, func(key string) bool { return !dead.isField[key] })
}

// TestNoWriteOnlyFields keeps the same rule for fields: every field of a
// struct type under internal/ is read by non-test code. Delete what it
// reports, read it, or allowlist it with a reason.
func TestNoWriteOnlyFields(t *testing.T) {
	dead, err := deadOnce()
	if err != nil {
		t.Fatal(err)
	}
	checkDead(t, dead.fields, func(key string) bool { return dead.isField[key] })
}

// checkDead fails on each hit that deadAllowed does not list, and on
// each allowlist entry that owns selects and hits does not hold.
func checkDead(t *testing.T, hits map[string]string, owns func(key string) bool) {
	t.Helper()
	for _, key := range slices.Sorted(maps.Keys(hits)) {
		if deadAllowed[key] == "" {
			t.Errorf("%s: delete it, use it, or allowlist it with a reason", hits[key])
		}
	}
	for key := range deadAllowed {
		if owns(key) && hits[key] == "" {
			t.Errorf("allowlist entry %q is stale: no longer declared, or now used outside tests", key)
		}
	}
}

// TestDeadCodeFixture runs the guard over testdata/deadcode, a module
// tree that plants one case of each rule: a test-only New that shares
// its name with a used New, an unexported func that only calls itself,
// a write-only field, and two methods reached only through interfaces —
// one promoted from an embedded struct into a module interface, one a
// String printed as a fmt.Stringer.
func TestDeadCodeFixture(t *testing.T) {
	dead, err := deadCode(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(dead.decls)), []string{"b.New", "b.helper"}; !slices.Equal(got, want) {
		t.Errorf("declaration rule reports %q, want %q", got, want)
	}
	if got, want := slices.Sorted(maps.Keys(dead.fields)), []string{"a.Stats.Misses"}; !slices.Equal(got, want) {
		t.Errorf("field rule reports %q, want %q", got, want)
	}
}

// deadReport is what deadCode finds, keyed as deadAllowed is.
type deadReport struct {
	decls   map[string]string // declarations nothing outside tests uses
	fields  map[string]string // struct fields nothing outside tests reads
	isField map[string]bool   // every struct field key under internal/
}

// deadCode type-checks the non-test Go code of the module tree at root
// and reports, keyed as deadAllowed is, what nothing outside tests uses:
//
//   - A package-level func, type, const or var declared under internal/,
//     or a method of a package-level named type there, that no non-test
//     code under internal/, cmd/, examples/ or benchmark/ names outside
//     the declaration itself. Uses are matched by object, not by name.
//     A method counts as used when its type's method set implements an
//     interface that non-test code mentions, or an exported interface
//     of an imported standard-library package (error included), and the
//     interface names the method.
//   - A field of a struct type declared under internal/ that non-test
//     code never reads: assigning, bumping or setting it in a composite
//     literal is not a read, so a write-only field is reported. A struct
//     tag, an embedded field, a conversion between struct types, and a
//     struct's use as a map key or in a comparison count as reads.
func deadCode(root string) (deadReport, error) {
	l := &loader{root: root, fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, std: importer.Default(),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		}}
	for _, dir := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				rel, _ := filepath.Rel(root, path)
				_, err = l.Import("nucanet/" + filepath.ToSlash(rel))
			}
			return err
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return deadReport{}, err
		}
	}
	dead := deadReport{decls: map[string]string{}, fields: map[string]string{}, isField: map[string]bool{}}
	l.unusedDecls(dead.decls)
	l.unreadFields(dead)
	return dead, nil
}

// unusedDecls adds to dead each declaration under internal/ that has no
// use outside its own declaration.
func (l *loader) unusedDecls(dead map[string]string) {
	span := map[types.Object]ast.Node{} // object -> its own declaration
	for _, f := range l.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				span[l.info.Defs[decl.Name]] = decl
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						span[l.info.Defs[spec.Name]] = spec
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							span[l.info.Defs[name]] = spec
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		obj = origin(obj)
		if n := span[obj]; n == nil || id.Pos() < n.Pos() || id.Pos() >= n.End() {
			used[obj] = true
		}
	}

	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	for _, tv := range l.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, pkg := range l.pkgs {
		if pkg == nil {
			continue
		}
		for _, imp := range pkg.Imports() {
			if strings.HasPrefix(imp.Path(), "nucanet/") {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces[it] = true
					}
				}
			}
		}
	}

	declared := map[types.Object]string{} // object -> pkg.name or pkg.Type.name
	for _, pkg := range l.internalPkgs() {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			declared[obj] = pkg.Name() + "." + name
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				declared[named.Method(i)] = pkg.Name() + "." + name + "." + named.Method(i).Name()
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			if mset.Len() == 0 {
				continue
			}
			for it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					used[origin(mset.Lookup(m.Pkg(), m.Name()).Obj())] = true
				}
			}
		}
	}
	for obj, key := range declared {
		if !used[obj] {
			dead[key] = l.fset.Position(obj.Pos()).String() + ": " + key + " has no use outside tests"
		}
	}
}

// unreadFields adds to dead.fields each field of a struct type declared
// under internal/ that non-test code never reads, and marks every such
// field's key in dead.isField.
func (l *loader) unreadFields(dead deadReport) {
	read := map[*types.Var]bool{}
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
			case *ast.SelectorExpr:
				if sel := l.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !lhs[n] {
					read[sel.Obj().(*types.Var).Origin()] = true
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

	for _, pkg := range l.internalPkgs() {
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
				f := st.Field(i)
				key := pkg.Name() + "." + name + "." + f.Name()
				dead.isField[key] = true
				if !read[f] && !f.Embedded() && st.Tag(i) == "" {
					dead.fields[key] = l.fset.Position(f.Pos()).String() + ": " + key + " is never read outside tests"
				}
			}
		}
	}
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// loader type-checks the packages of the module tree at root from their
// non-test sources, importing the standard library through
// importer.Default. Every checked file shares one types.Info, so a
// declaration's uses are visible across packages. A directory with no
// non-test Go file loads as nil.
type loader struct {
	root  string
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
	names, err := filepath.Glob(filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, "nucanet/")), "*.go"))
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

// internalPkgs returns the loaded packages under internal/.
func (l *loader) internalPkgs() []*types.Package {
	var out []*types.Package
	for path, pkg := range l.pkgs {
		if pkg != nil && strings.HasPrefix(path, "nucanet/internal/") {
			out = append(out, pkg)
		}
	}
	return out
}
