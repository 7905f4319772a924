// Command deadexports fails when an exported identifier of the repro
// module has no reference from non-test code, or an exported field of
// an exported struct is never set or never read by it, unless allow.txt
// lists it with a reason, and when cmd/decided links more non-test
// lines than its pinned budget.
//
// It type-checks every non-test package of the module (examples
// included) and of each module nested in it (perfbench), which it reads
// for references but never reports on. Only the standard library is
// used: go/parser, go/types and the source importer, so the check needs
// no network. Run it from the module root:
//
//	go run ./scripts/deadexports
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

const (
	allowFile = "scripts/deadexports/allow.txt"
	// budgetRoot's transitive repo imports, itself included, may hold at
	// most budgetLines non-test lines (this platform's files, as go list
	// selects them).
	budgetRoot  = "cmd/decided"
	budgetLines = 9617
)

func main() {
	prog, err := load(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	allow, err := os.Open(allowFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	problems := checkAllow(prog.dead(), allow)
	allow.Close()
	pkgs, lines := prog.closure(budgetRoot)
	fmt.Printf("deadexports: %s links %d repo packages, %d non-test lines (budget %d)\n", budgetRoot, pkgs, lines, budgetLines)
	if lines > budgetLines {
		problems = append(problems, fmt.Sprintf("%s: %d non-test lines exceed the budget of %d", budgetRoot, lines, budgetLines))
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "deadexports:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// pkg is one type-checked non-test package.
type pkg struct {
	rel   string // directory relative to the module root, slash-separated
	own   bool   // in the root module, so its exports are reported
	lines int
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// program is every non-test package under a module root, keyed by
// import path. Repo packages are checked in dependency order through
// Import, so each object has one identity across packages.
type program struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg
}

// load finds the packages of the module at root and of every module
// nested below it, then type-checks them all.
func load(root string) (*program, error) {
	mods := map[string]string{} // directory -> module path
	p := &program{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	p.std = importer.ForCompiler(p.fset, "source", nil)
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if gomod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			mods[dir] = modulePath(gomod)
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		modDir := dir
		for mods[modDir] == "" {
			modDir = filepath.Dir(modDir)
		}
		rel, _ := filepath.Rel(modDir, dir)
		importPath := path.Join(mods[modDir], filepath.ToSlash(rel))
		rootRel, _ := filepath.Rel(root, dir)
		p.pkgs[importPath] = &pkg{rel: filepath.ToSlash(rootRel), own: modDir == root}
		for _, name := range bp.GoFiles {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.pkgs[importPath].files = append(p.pkgs[importPath].files, f)
			p.pkgs[importPath].lines += bytes.Count(src, []byte("\n"))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if mods[root] == "" {
		return nil, fmt.Errorf("%s: no module path in go.mod", root)
	}
	for importPath := range p.pkgs {
		if _, err := p.Import(importPath); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// Import type-checks a repo package on first use and hands every other
// path to the standard-library source importer.
func (p *program) Import(importPath string) (*types.Package, error) {
	q, ok := p.pkgs[importPath]
	if !ok {
		return p.std.Import(importPath)
	}
	if q.types == nil {
		q.info = &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: p}
		var err error
		if q.types, err = conf.Check(importPath, p.fset, q.files, q.info); err != nil {
			return nil, err
		}
	}
	return q.types, nil
}

// finding is one report: an identifier and what no non-test code does
// with it.
type finding struct{ id, lack string }

// dead returns the root module's exported package-level identifiers,
// exported methods of exported types and exported fields of exported
// structs that no non-test code uses, sorted by id ("dir.Name",
// "dir.Type.Method" or "dir.Type.Field").
func (p *program) dead() []finding {
	used := map[types.Object]bool{}
	set, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, q := range p.pkgs {
		for _, obj := range q.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
		q.fieldUses(set, read)
	}
	var dead []finding
	for _, q := range p.pkgs {
		if !q.own {
			continue
		}
		scope := q.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				dead = append(dead, finding{q.rel + "." + name, "references it"})
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !stringerOrError(m) {
					dead = append(dead, finding{q.rel + "." + name + "." + m.Name(), "references it"})
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() || reflect.StructTag(st.Tag(i)).Get("json") != "" {
					continue
				}
				id := q.rel + "." + name + "." + f.Name()
				switch {
				case !set[f] && !read[f]:
					dead = append(dead, finding{id, "sets or reads it"})
				case !set[f]:
					dead = append(dead, finding{id, "sets it"})
				case !read[f]:
					dead = append(dead, finding{id, "reads it"})
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].id < dead[j].id })
	return dead
}

// fieldUses marks each struct field q's code sets or reads. A field is
// set on the left of an assignment or ++/--, as a key or position in a
// composite literal, and when its address is taken; x.A.B = v sets A
// too when A is a struct value. Taking an address, explicitly or by
// calling a pointer method on an addressable field, also reads.
// Every other selector reads.
func (q *pkg) fieldUses(set, read map[*types.Var]bool) {
	const (
		write = 1
		addr  = 2
	)
	mode := map[*ast.SelectorExpr]int{}
	// mark walks down the operand of a write or address-of through the
	// field selectors whose containing value is itself written.
	mark := func(e ast.Expr, m int) {
		for {
			sel, _ := e.(*ast.SelectorExpr)
			s := q.info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			mode[sel] = m
			if s.Indirect() {
				return
			}
			e = sel.X
		}
	}
	for _, f := range q.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs, write)
				}
			case *ast.IncDecStmt:
				mark(n.X, write)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X, addr)
				}
			case *ast.SelectorExpr:
				if s := q.info.Selections[n]; s != nil && s.Kind() == types.MethodVal && !isPointer(q.info.Types[n.X].Type) {
					if isPointer(s.Obj().Type().(*types.Signature).Recv().Type()) {
						mark(n.X, addr)
					}
				}
			case *ast.CompositeLit:
				t := q.info.Types[n].Type
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						set[q.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
					} else {
						set[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
	for e, s := range q.info.Selections {
		if s.Kind() != types.FieldVal {
			continue
		}
		f := s.Obj().(*types.Var).Origin()
		switch mode[e] {
		case write:
			set[f] = true
		case addr:
			set[f], read[f] = true, true
		default:
			read[f] = true
		}
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.(*types.Pointer)
	return ok
}

// stringerOrError reports whether m is a String or Error method that
// satisfies fmt.Stringer or error: calls through the interface never
// name it.
func stringerOrError(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	return (m.Name() == "String" || m.Name() == "Error") && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
}

// checkAllow compares the findings with an allowlist of
// "<id> <reason>" lines, where "<dir>.*" covers a whole package, fields
// included. It returns one problem per unlisted finding, per entry
// without a reason and per stale entry that matches no finding.
func checkAllow(dead []finding, allow io.Reader) []string {
	var problems []string
	entries := map[string]bool{} // entry -> matched a finding
	sc := bufio.NewScanner(allow)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, "allowlist entry "+id+" gives no reason")
		}
		entries[id] = false
	}
	if err := sc.Err(); err != nil {
		return append(problems, "reading allowlist: "+err.Error())
	}
	for _, d := range dead {
		pkgWide := d.id[:strings.Index(d.id, ".")] + ".*"
		if _, ok := entries[pkgWide]; ok {
			entries[pkgWide] = true
		} else if _, ok := entries[d.id]; ok {
			entries[d.id] = true
		} else {
			problems = append(problems, "dead export "+d.id+": no non-test code "+d.lack+"; delete it or add it to "+allowFile+" with a reason")
		}
	}
	var stale []string
	for id, matched := range entries {
		if !matched {
			stale = append(stale, "stale allowlist entry "+id+": it is used or gone; remove the entry")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// closure returns how many repo packages root's import graph reaches,
// root included, and their non-test line total.
func (p *program) closure(root string) (pkgs, lines int) {
	seen := map[string]bool{}
	var visit func(*types.Package)
	visit = func(t *types.Package) {
		q, repo := p.pkgs[t.Path()]
		if !repo || seen[t.Path()] {
			return
		}
		seen[t.Path()] = true
		pkgs++
		lines += q.lines
		for _, imp := range t.Imports() {
			visit(imp)
		}
	}
	for _, q := range p.pkgs {
		if q.own && q.rel == root {
			visit(q.types)
		}
	}
	return pkgs, lines
}
