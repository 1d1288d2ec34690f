package gcbfs

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachAllowed names the package-level declarations that no root reaches and
// that stay anyway, each with its reason. Entries read "pkg.Name" or
// "pkg.Type.Method", pkg being the last element of the import path.
var reachAllowed = map[string]string{
	"gen.Path":                  "shared test input: the degenerate graph shapes the tests of eight packages run on",
	"gen.Cycle":                 "shared test input, as gen.Path",
	"gen.Star":                  "shared test input, as gen.Path",
	"gen.Grid2D":                "shared test input, as gen.Path",
	"gen.Uniform":               "shared test input, as gen.Path",
	"graph.EdgeList.Symmetrize": "shared test input: undirected test graphs for graph, baseline, concomp, partition and core",
	"faults.Injector.WithSites": "shared test input: the site-restricted injectors of the fault tests of five packages",
	"mpi.World.Rendezvous":      "oracle: TestSuperstepIsTwoRendezvous and its kin count a superstep's rendezvous with it",
	"mpi.World.MessagesSent":    "oracle: the pair-round and superstep tests count the messages a round sends",
	"mpi.World.MailboxSends":    "oracle: the superstep tests assert that no all-pairs round goes through a mailbox",
}

// reachBenchmarkOnly is what only the host benchmark (benchmark/, its own
// module) reaches: the probes' entry points and their helpers. The list may
// shrink but never grow; an entry that a library root reaches again, or that
// is deleted, must leave it.
var reachBenchmarkOnly = []string{
	"core.Plan.RunRepair",
	"delta.Affected",
	"frontier.AppendRank",
	"frontier.Bins.PackRank",
	"frontier.SortUnique",
	"frontier.UnpackRankInto",
	"g500.VisitedCount",
	"mpi.Comm.AllreduceOr",
	"mpi.Comm.AllreduceSum",
	"mpi.collective.arrive",
	"mpi.collective.fold",
	"wire.AppendRecords",
	"wire.DecodeRankInto",
	"wire.DecodeRecordsAppend",
	"wire.NewSelectorSized",
	"wire.Selector.AppendRank",
	"wire.sortedHint",
}

// TestEveryDeclarationIsReached type-checks every non-test package of the
// module and walks references from its roots: the main and init funcs of the
// commands and examples, and package gcbfs's exported declarations and the
// exported methods of its types. Tests are never roots. A method is also
// reached when its receiver type is and the type satisfies an interface that
// reached code declares or uses. Every package-level declaration, exported or
// not, must be reached, benchmark-only or allowlisted.
func TestEveryDeclarationIsReached(t *testing.T) {
	g := loadModule(t)
	live := g.reach(g.roots(false))
	withBench := g.reach(g.roots(true))

	var benchOnly []string
	for _, d := range g.decls {
		name := g.name(d)
		switch {
		case live[d]:
			if _, ok := reachAllowed[name]; ok {
				t.Errorf("%s is reached; drop its allowlist entry", name)
			}
		case withBench[d]:
			benchOnly = append(benchOnly, name)
		default:
			if _, ok := reachAllowed[name]; !ok {
				t.Errorf("%s (%s) is reached by no root: delete it, move it into the _test.go file that uses it, or allowlist it with a reason",
					name, g.fset.Position(d.Pos()))
			}
		}
	}
	slices.Sort(benchOnly)
	for _, name := range benchOnly {
		if !slices.Contains(reachBenchmarkOnly, name) {
			t.Errorf("%s is reached only from benchmark/; the benchmark-only list may shrink but not grow", name)
		}
	}
	for _, name := range reachBenchmarkOnly {
		if !slices.Contains(benchOnly, name) {
			t.Errorf("%s is no longer benchmark-only; drop it from the list", name)
		}
	}
	for name := range reachAllowed {
		if !slices.ContainsFunc(g.decls, func(d types.Object) bool { return g.name(d) == name }) {
			t.Errorf("allowlist entry %s names no declaration", name)
		}
	}
	t.Logf("%d declarations; benchmark-only (%d): %s", len(g.decls), len(benchOnly), strings.Join(benchOnly, " "))
}

// moduleGraph is the module's type-checked non-test packages with each
// package-level object's declaring syntax.
type moduleGraph struct {
	fset  *token.FileSet
	pkgs  map[string]*modulePkg // by import path; "gcbfs/benchmark" included
	decls []types.Object        // the checked declarations, outside benchmark/
	node  map[types.Object]ast.Node
	info  *types.Info
	// dynamic are the interfaces the standard library consults at run time.
	dynamic []types.Type
}

// dynamicIfaces declares the interfaces that fmt's verbs and errors.Is/As
// look for at run time: a method that satisfies one is reached when its
// receiver type is, though no code names the interface.
const dynamicIfaces = `package dynamic

import "fmt"

type (
	errorer    = error
	stringer   = fmt.Stringer
	goStringer = fmt.GoStringer
	formatter  = fmt.Formatter
	unwrapper  interface{ Unwrap() error }
	unwrappers interface{ Unwrap() []error }
	iser       interface{ Is(error) bool }
	aser       interface{ As(any) bool }
)
`

type modulePkg struct {
	files []*ast.File
	types *types.Package
}

const benchPath = "gcbfs/benchmark"

func loadModule(t *testing.T) *moduleGraph {
	t.Helper()
	g := &moduleGraph{
		fset: token.NewFileSet(),
		pkgs: map[string]*modulePkg{},
		node: map[types.Object]ast.Node{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	stdImports := map[string]bool{"fmt": true} // dynamicIfaces imports fmt
	err := filepath.WalkDir(".", func(dir string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		p := &modulePkg{}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(g.fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, af)
		}
		for _, imp := range bp.Imports {
			if imp != "gcbfs" && !strings.HasPrefix(imp, "gcbfs/") {
				stdImports[imp] = true
			}
		}
		g.pkgs[path.Join("gcbfs", filepath.ToSlash(dir))] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// One go list call locates the export data of every standard package
	// the module imports; the gc importer reads it from there.
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for imp := range stdImports {
		args = append(args, imp)
	}
	out, err := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		imp, file, _ := strings.Cut(line, " ")
		export[imp] = file
	}
	std := importer.ForCompiler(g.fset, "gc", func(imp string) (io.ReadCloser, error) {
		return os.Open(export[imp])
	})
	imp := &moduleImporter{g: g, std: std}
	for p := range g.pkgs {
		if _, err := imp.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	dyn, err := parser.ParseFile(g.fset, "dynamic.go", dynamicIfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	dynPkg, err := (&types.Config{Importer: std}).Check("dynamic", g.fset, []*ast.File{dyn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dynPkg.Scope().Names() {
		g.dynamic = append(g.dynamic, dynPkg.Scope().Lookup(name).Type())
	}

	for p, mp := range g.pkgs {
		for _, f := range mp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					g.declare(p, g.info.Defs[d.Name], d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							g.declare(p, g.info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								g.declare(p, g.info.Defs[n], s)
							}
						}
					}
				}
			}
		}
	}
	slices.SortFunc(g.decls, func(a, b types.Object) int { return strings.Compare(g.name(a), g.name(b)) })
	return g
}

func (g *moduleGraph) declare(pkg string, obj types.Object, n ast.Node) {
	g.node[obj] = n
	if pkg != benchPath && !entry(obj) {
		g.decls = append(g.decls, obj)
	}
}

// entry reports whether obj runs whenever its package is linked: a blank
// declaration, an init func, or a command's main.
func entry(obj types.Object) bool {
	return obj.Name() == "_" || obj.Name() == "init" || obj.Name() == "main" && obj.Pkg().Name() == "main"
}

// receiver is the named type a method is declared on, nil for anything else.
func receiver(obj types.Object) *types.Named {
	f, ok := obj.(*types.Func)
	if !ok || f.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	rt := f.Type().(*types.Signature).Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	return rt.(*types.Named)
}

// moduleImporter type-checks the module's packages from source, in import
// order, and hands the standard library to the gc importer.
type moduleImporter struct {
	g   *moduleGraph
	std types.Importer
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	mp, ok := m.g.pkgs[p]
	if !ok {
		return m.std.Import(p)
	}
	if mp.types == nil {
		conf := types.Config{Importer: m}
		pkg, err := conf.Check(p, m.g.fset, mp.files, m.g.info)
		if err != nil {
			return nil, err
		}
		mp.types = pkg
	}
	return mp.types, nil
}

// name is a declaration's allowlist name: pkg.Name or pkg.Type.Method.
func (g *moduleGraph) name(obj types.Object) string {
	name := path.Base(obj.Pkg().Path()) + "."
	if r := receiver(obj); r != nil {
		name += r.Obj().Name() + "."
	}
	return name + obj.Name()
}

// roots are the objects every binary or importer of package gcbfs may run:
// the commands' and examples' main and init funcs (and the benchmark's, when
// withBench), every init func and blank declaration, and package gcbfs's
// exported declarations with the exported methods of its types.
func (g *moduleGraph) roots(withBench bool) []types.Object {
	var roots []types.Object
	for obj := range g.node {
		p := obj.Pkg().Path()
		if p == benchPath && !withBench {
			continue
		}
		r := receiver(obj)
		if entry(obj) || p == "gcbfs" && obj.Exported() && (r == nil || r.Obj().Exported()) {
			roots = append(roots, obj)
		}
	}
	return roots
}

// reach marks every object the roots reference, transitively, adding the
// methods by which a reached type satisfies a reached interface until
// nothing more is marked.
func (g *moduleGraph) reach(roots []types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	ifaces := map[types.Type]bool{}
	for _, t := range g.dynamic {
		ifaces[t] = true
	}
	var named []*types.Named
	work := slices.Clone(roots)
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Pkg() == nil || live[obj] {
			return
		}
		if _, ok := g.pkgs[obj.Pkg().Path()]; !ok {
			return
		}
		live[obj] = true
		work = append(work, obj)
	}
	for _, r := range roots {
		live[r] = true
	}
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			// Generic types are left out of the interface check: their
			// methods live only by direct reference.
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					named = append(named, n)
				}
			}
			if c, ok := obj.(*types.Const); ok {
				if n, ok := c.Type().(*types.Named); ok {
					mark(n.Obj())
				}
			}
			n := g.node[obj]
			if n == nil {
				continue
			}
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := g.info.Uses[n]; obj != nil {
						mark(obj)
						collectIfaces(obj.Type(), ifaces)
					}
				case ast.Expr:
					if tv, ok := g.info.Types[n]; ok {
						collectIfaces(tv.Type, ifaces)
					}
				}
				return true
			})
		}
		for _, n := range named {
			if types.IsInterface(n) {
				continue
			}
			for iface := range ifaces {
				it := iface.Underlying().(*types.Interface)
				if it.NumMethods() == 0 {
					continue
				}
				var recv types.Type = n
				if !types.Implements(recv, it) {
					recv = types.NewPointer(n)
					if !types.Implements(recv, it) {
						continue
					}
				}
				for m := range it.Methods() {
					obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
					mark(obj)
				}
			}
		}
	}
	return live
}

// collectIfaces adds the interfaces t is, or takes or returns as a func.
func collectIfaces(t types.Type, ifaces map[types.Type]bool) {
	switch u := t.(type) {
	case nil:
	case *types.Named, *types.Alias:
		if types.IsInterface(u) {
			ifaces[u] = true
		}
	case *types.Interface:
		ifaces[u] = true
	case *types.Signature:
		for v := range u.Params().Variables() {
			collectIfaces(v.Type(), ifaces)
		}
		for v := range u.Results().Variables() {
			collectIfaces(v.Type(), ifaces)
		}
	case *types.Pointer:
		collectIfaces(u.Elem(), ifaces)
	case *types.Slice:
		collectIfaces(u.Elem(), ifaces)
	case *types.Map:
		collectIfaces(u.Elem(), ifaces)
	case *types.Chan:
		collectIfaces(u.Elem(), ifaces)
	}
}
