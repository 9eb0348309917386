package pipebd

import (
	"go/ast"
	"go/build"
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

// testOnly lists the declarations of internal/... that no program reaches
// and that stay anyway, each with the reason. An entry is a root of the
// walk like a program's main; a type brings its methods.
var testOnly = map[string]string{
	"cluster/transport.Loopback":    "the in-memory network cluster tests substitute for TCP",
	"cluster/transport.NewLoopback": "constructor of Loopback",
	"cluster/transport.Meter.Reset": "tests zero a meter between phases of one session",
	"testutil.LeakCheck":            "goroutine-leak guard deferred by the concurrency tests",
	"tensor.FromSlice":              "fixture constructor: tests build tensors from literal data",
	"tensor.Tensor.At":              "fixture accessor: tests read one element by index",
	"tensor.Tensor.Set":             "fixture accessor: tests write one element by index",
	"tensor.Tensor.NDim":            "fixture accessor: tests assert a result's rank",
	"tensor.convGeom.at":            "reference im2col indexing the packed kernels are compared against",
}

// TestEveryDeclarationIsReachable walks the static reference graph of
// every non-test file (build tags honoured) from each main, init and
// package-level initialiser of cmd/, examples/ and benchmark/, and fails
// naming every top-level func, method or type of internal/... the walk
// does not reach: code only its own tests keep alive. A method counts as
// reached when its type is and an interface declared in the module (or
// fmt.Stringer / error / Unwrap) requires its name.
func TestEveryDeclarationIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	if len(testOnly) > 12 {
		t.Fatalf("allowlist has %d names; the limit is 12", len(testOnly))
	}
	w := &reachWalker{
		fset:       token.NewFileSet(),
		ctx:        build.Default,
		dirs:       map[string]string{},
		pkgs:       map[string]*types.Package{},
		nodes:      map[types.Object]*node{},
		byName:     map[string]types.Object{},
		methods:    map[types.Object][]types.Object{},
		inits:      map[*types.Package][]*node{},
		ifaceNames: map[string]bool{"String": true, "Error": true, "Unwrap": true},
	}
	w.ctx.CgoEnabled = false
	w.std = importer.ForCompiler(w.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != "." && (base[0] == '.' || base[0] == '_' || base == "testdata") {
			return filepath.SkipDir
		}
		if p, err := w.ctx.ImportDir(path, 0); err == nil && len(p.GoFiles) > 0 {
			w.dirs[filepath.ToSlash(filepath.Join(modulePath, path))] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range w.dirs {
		if _, err := w.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for name := range testOnly {
		if w.byName[name] == nil {
			t.Errorf("allowlist names %s, which does not exist", name)
		}
	}
	if dead := w.unreached(); len(dead) > 0 {
		t.Errorf("%d declarations of internal/... are reachable from no program:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}

const modulePath = "pipebd"

// node is one top-level declaration and every package-level object or
// method of the module its source mentions.
type node struct {
	name string // "" outside internal/...: walked, never reported
	uses []types.Object
}

type reachWalker struct {
	fset *token.FileSet
	ctx  build.Context
	std  types.ImporterFrom
	dirs map[string]string // import path -> directory
	pkgs map[string]*types.Package

	nodes      map[types.Object]*node
	byName     map[string]types.Object
	methods    map[types.Object][]types.Object // type name -> its methods
	inits      map[*types.Package][]*node      // init funcs: run once the package is linked
	roots      []*node
	ifaceNames map[string]bool // method names some interface asks for
}

func (w *reachWalker) Import(path string) (*types.Package, error) {
	return w.ImportFrom(path, "", 0)
}

// ImportFrom type-checks the module's own packages from the files the
// build would compile, so every importer sees one object per declaration,
// and leaves the standard library to the source importer.
func (w *reachWalker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	pdir, ok := w.dirs[path]
	if !ok {
		return w.std.ImportFrom(path, dir, mode)
	}
	if p, ok := w.pkgs[path]; ok {
		return p, nil
	}
	bp, err := w.ctx.ImportDir(pdir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(w.fset, filepath.Join(pdir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: w}).Check(path, w.fset, files, info)
	if err != nil {
		return nil, err
	}
	w.pkgs[path] = p
	w.index(p, files, info)
	return p, nil
}

// index records one node per top-level declaration of a package.
func (w *reachWalker) index(p *types.Package, files []*ast.File, info *types.Info) {
	prefix := ""
	if rel, ok := strings.CutPrefix(p.Path(), modulePath+"/internal/"); ok {
		prefix = rel + "."
	}
	add := func(name string, src ast.Node, objs ...types.Object) *node {
		n := &node{uses: w.usesIn(src, info)}
		if prefix != "" && name != "" {
			n.name = prefix + name
			w.byName[n.name] = objs[0]
		}
		for _, obj := range objs {
			w.nodes[obj] = n
		}
		return n
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				obj := info.Defs[fd.Name].(*types.Func)
				switch recv := obj.Type().(*types.Signature).Recv(); {
				case recv != nil:
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					tn := rt.(*types.Named).Origin().Obj()
					add(tn.Name()+"."+fd.Name.Name, fd, obj)
					w.methods[tn] = append(w.methods[tn], obj)
				case fd.Name.Name == "init":
					w.inits[p] = append(w.inits[p], add("", fd))
				case fd.Name.Name == "main" && p.Name() == "main":
					w.roots = append(w.roots, add("", fd, obj))
				default:
					add(fd.Name.Name, fd, obj)
				}
				continue
			}
			for _, spec := range d.(*ast.GenDecl).Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name.Name, spec, info.Defs[spec.Name])
					ast.Inspect(spec, func(n ast.Node) bool {
						if it, ok := n.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									w.ifaceNames[id.Name] = true
								}
							}
						}
						return true
					})
				case *ast.ValueSpec:
					var objs []types.Object
					for _, id := range spec.Names {
						if obj := info.Defs[id]; obj != nil { // nil for the blank identifier
							objs = append(objs, obj)
						}
					}
					if n := add("", spec, objs...); p.Name() == "main" {
						w.roots = append(w.roots, n)
					}
				}
			}
		}
	}
}

// usesIn returns the package-level objects and the methods of the module
// that the source under src mentions.
func (w *reachWalker) usesIn(src ast.Node, info *types.Info) []types.Object {
	var out []types.Object
	ast.Inspect(src, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			out = append(out, obj.Origin())
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok {
				obj = named.Origin().Obj() // the generic type, not one instance
			}
			out = append(out, obj)
		case *types.Var, *types.Const:
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// unreached marks everything reachable from the roots and the allowlist
// and returns the sorted names of the internal declarations left over.
func (w *reachWalker) unreached() []string {
	reached := map[*node]bool{}
	linked := map[*types.Package]bool{}
	var work []*node
	push := func(n *node) {
		if n != nil && !reached[n] {
			reached[n] = true
			work = append(work, n)
		}
	}
	link := func(p *types.Package) {
		if !linked[p] {
			linked[p] = true
			for _, n := range w.inits[p] {
				push(n)
			}
		}
	}
	visit := func(obj types.Object, everyMethod bool) {
		push(w.nodes[obj]) // nil for the standard library's objects
		link(obj.Pkg())
		for _, m := range w.methods[obj] {
			if everyMethod || w.ifaceNames[m.Name()] {
				push(w.nodes[m])
			}
		}
	}
	for _, n := range w.roots {
		push(n)
	}
	for _, p := range w.pkgs {
		if p.Name() == "main" {
			link(p)
		}
	}
	for name := range testOnly {
		if obj := w.byName[name]; obj != nil {
			visit(obj, true)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, obj := range n.uses {
			visit(obj, false)
		}
	}
	var dead []string
	for _, n := range w.nodes {
		if n.name != "" && !reached[n] {
			dead = append(dead, n.name)
		}
	}
	sort.Strings(dead)
	return dead
}
