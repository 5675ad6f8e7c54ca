// deadexports fails when an exported identifier of the root package or a
// package under internal/ has no caller outside tests. Run it from the
// module root:
//
//	go run ./scripts/deadexports
//
// An exported package-level identifier of the root package or a package
// under internal/, or an exported method of a type declared there, is
// live if non-test code
// anywhere in the module references it outside its own declaration (a
// type's declaration includes its methods), or if it is a method that
// satisfies an interface in use: one the module's code names or types an
// expression with, one declared by a package the module imports, or the
// Is, As and Unwrap that the errors package looks up on an error. The
// references are the union over the host build context and -tags purego.
// Every other such identifier is a finding.
//
// allow.txt, beside this file, names test-infrastructure packages whole
// and lists the findings an open ROADMAP item deletes, one "pkg.Name" or
// "pkg.Type.Method" a line followed by "item N". The check fails (exit 1)
// on a finding the list does not name, on an entry that names nothing
// dead (it is live now, or gone), and on a dotted entry with no "item N"
// tag, so the list can only shrink.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	allow, err := os.ReadFile(filepath.Join("scripts", "deadexports", "allow.txt"))
	var problems []string
	if err == nil {
		problems, err = check(".", allow)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// check sweeps the module at root and holds its findings to the
// allowlist. It returns one line per problem, sorted; none means pass.
func check(root string, allow []byte) ([]string, error) {
	dead, pkgs, err := deadExports(root)
	if err != nil {
		return nil, err
	}
	return applyAllow(dead, pkgs, allow), nil
}

// deadExports maps each finding ("pkg.Name" or "pkg.Type.Method", pkg
// relative to internal/, or the module path for the root package) to the
// position of its declaration, and lists the packages under internal/ the
// same way.
func deadExports(root string) (map[string]string, map[string]bool, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, nil, err
	}
	purego := build.Default
	purego.BuildTags = append(purego.BuildTags[:len(purego.BuildTags):len(purego.BuildTags)], "purego")
	decls, live := map[string]string{}, map[string]bool{}
	for _, ctxt := range []build.Context{build.Default, purego} {
		p := *m
		p.ctxt, p.pkgs, p.files = ctxt, map[string]*types.Package{}, map[string][]*ast.File{}
		p.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		if err := p.sweep(decls, live); err != nil {
			return nil, nil, err
		}
	}
	for k := range live {
		delete(decls, k)
	}
	pkgs := map[string]bool{}
	for path := range m.dirs {
		if rel, ok := strings.CutPrefix(path, m.internal); ok {
			pkgs[rel] = true
		}
	}
	return decls, pkgs, nil
}

// pass type-checks the module under one build context. It is the
// importer for the module's own paths, so one types.Info sees every
// reference in the module. The passes share the package directories and
// the standard library, type-checked from source once.
type pass struct {
	root, path, internal string
	fset                 *token.FileSet
	dirs                 map[string]string // import path → directory
	std                  types.Importer

	ctxt  build.Context
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func loadModule(root string) (*pass, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	_, decl, _ := strings.Cut(string(gomod), "module ")
	m := &pass{root: root, fset: token.NewFileSet(), dirs: map[string]string{}}
	if f := strings.Fields(decl); len(f) > 0 {
		m.path = strings.Trim(f[0], `"`)
	}
	m.internal = m.path + "/internal/"
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
		}
		rel, err := filepath.Rel(root, path)
		m.dirs[strings.TrimSuffix(m.path+"/"+filepath.ToSlash(rel), "/.")] = path
		return err
	})
	// The source importer reads build.Default. No file here uses cgo, the
	// standard library's API is the same without it, and without it the
	// importer never runs the cgo tool.
	build.Default.CgoEnabled = false
	m.std = importer.ForCompiler(m.fset, "source", nil)
	return m, err
}

func (p *pass) Import(path string) (*types.Package, error) {
	if path != p.path && !strings.HasPrefix(path, p.path+"/") {
		return p.std.Import(path)
	}
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	files, err := p.parseDir(p.dirs[path])
	if err != nil || len(files) == 0 {
		return types.NewPackage(path, ""), err // no Go file under this context: nothing imports it
	}
	pkg, err := (&types.Config{Importer: p}).Check(path, p.fset, files, p.info)
	p.pkgs[path], p.files[path] = pkg, files
	return pkg, err
}

// parseDir parses the non-test Go files of dir that the pass's build
// context selects.
func (p *pass) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		ok, err := p.ctxt.MatchFile(dir, e.Name())
		if ok {
			var f *ast.File
			f, err = parser.ParseFile(p.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			files = append(files, f)
		}
		if err != nil {
			return nil, err
		}
	}
	return files, err
}

// sweep type-checks the module and adds the exported declarations of the
// swept packages to decls. It marks live each name that a declaration other
// than its own references, and each method that satisfies an interface
// in use.
func (p *pass) sweep(decls map[string]string, live map[string]bool) error {
	for path := range p.dirs {
		if _, err := p.Import(path); err != nil {
			return err
		}
	}
	methods := map[string]*types.Func{}
	for _, files := range p.files {
		for _, f := range files {
			for _, d := range f.Decls {
				units := []ast.Node{d} // a spec of a grouped declaration is a declaration of its own
				if g, ok := d.(*ast.GenDecl); ok {
					units = units[:0]
					for _, s := range g.Specs {
						units = append(units, s)
					}
				}
				for _, u := range units {
					own := p.declare(u, decls, methods)
					ast.Inspect(u, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if k := p.key(p.info.Uses[id]); k != "" && !owns(own, k) {
								live[k] = true
							}
						}
						return true
					})
				}
			}
		}
	}
	ifaces := p.interfaces()
	for k, fn := range methods {
		if satisfies(fn, ifaces[fn.Name()]) {
			live[k] = true
		}
	}
	return nil
}

// declare adds the exported names that declaration u declares in a swept
// package to decls, and its exported method to methods. It returns the
// keys u belongs to: the names it declares and, for a method, the
// receiver type.
func (p *pass) declare(u ast.Node, decls map[string]string, methods map[string]*types.Func) (own []string) {
	var ids []*ast.Ident
	switch u := u.(type) {
	case *ast.FuncDecl:
		ids = []*ast.Ident{u.Name}
	case *ast.TypeSpec:
		ids = []*ast.Ident{u.Name}
	case *ast.ValueSpec:
		ids = u.Names
	}
	for _, id := range ids {
		k := p.key(p.info.Defs[id])
		if k == "" {
			continue
		}
		own = append(own, k)
		fn, _ := p.info.Defs[id].(*types.Func)
		method := fn != nil && fn.Type().(*types.Signature).Recv() != nil
		if method {
			own = append(own, k[:strings.LastIndexByte(k, '.')])
		}
		if id.IsExported() {
			pos := p.fset.Position(id.Pos())
			file, _ := filepath.Rel(p.root, pos.Filename)
			decls[k] = fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line)
			if method {
				methods[k] = fn
			}
		}
	}
	return own
}

// owns reports whether key names one of own, or a method of one.
func owns(own []string, key string) bool {
	for _, o := range own {
		if o == key || strings.HasPrefix(o, key+".") {
			return true
		}
	}
	return false
}

// key names a package-level object or method of a swept package as
// "pkg.Name" or "pkg.Type.Method", pkg relative to internal/ or, for the
// root package, the module path; it returns "" for anything else.
func (p *pass) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	rel, ok := strings.CutPrefix(obj.Pkg().Path(), p.internal)
	if obj.Pkg().Path() == p.path {
		rel, ok = p.path, true
	}
	if !ok {
		return ""
	}
	if fn, isFunc := obj.(*types.Func); isFunc && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Type().(*types.Signature).Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return rel + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return rel + "." + obj.Name()
}

// interfaces indexes the interfaces in use by method name: every
// interface the module's code names or types an expression with, every
// named interface of a package it imports, and error, whose Is, As and
// Unwrap the errors package looks up at run time.
func (p *pass) interfaces() map[string][]*types.Interface {
	seen := map[*types.Interface]bool{}
	byName := map[string][]*types.Interface{}
	add := func(t types.Type, names ...string) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			names = append(names, it.Method(i).Name())
		}
		for _, name := range names {
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type(), "Is", "As", "Unwrap")
	for _, tv := range p.info.Types {
		add(tv.Type)
	}
	for _, pkg := range p.pkgs {
		for _, imp := range pkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	return byName
}

// satisfies reports whether fn's receiver type, or a pointer to it,
// implements one of ifaces.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

var itemTag = regexp.MustCompile(`\bitem [0-9]+`)

// applyAllow holds the findings to the allowlist: each line is a name,
// then a tag; "#" starts a comment. A name without a dot is a package
// under internal/ (one of pkgs), all of whose findings it allows.
func applyAllow(dead map[string]string, pkgs map[string]bool, allow []byte) []string {
	var problems []string
	listed := map[string]bool{}
	for i, line := range strings.Split(string(allow), "\n") {
		line, _, _ = strings.Cut(line, "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		name, tag := fields[0], strings.Join(fields[1:], " ")
		where := fmt.Sprintf("scripts/deadexports/allow.txt:%d: %s", i+1, name)
		switch {
		case listed[name]:
			problems = append(problems, where+" is listed twice")
		case !strings.Contains(name, "."):
			if !pkgs[name] {
				problems = append(problems, where+" is stale: there is no such package under internal/; delete the line")
			}
		case !itemTag.MatchString(tag):
			problems = append(problems, where+` has no "item N" tag naming the ROADMAP item that deletes it`)
		case dead[name] == "":
			problems = append(problems, where+" is stale: it is live now, or gone; delete the line")
		}
		listed[name] = true
	}
	for key, pos := range dead {
		if pkg, _, _ := strings.Cut(key, "."); !listed[key] && !listed[pkg] {
			problems = append(problems, fmt.Sprintf("%s: %s is exported and no non-test code uses it: delete or unexport it", pos, key))
		}
	}
	sort.Strings(problems)
	return problems
}
