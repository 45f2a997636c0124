// Package driver loads and runs the dplint analyzer suite: it
// type-checks the module from source with go/build and go/types, in
// dependency order, and runs every analyzer over each package with one
// in-memory fact store, so facts flow from a package to its importers.
//
// Test files are always checked. A package's in-package _test.go files
// are type-checked with it; its external test package (package x_test)
// is checked as its own unit, after the package it tests.
package driver

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
	"sort"
	"strings"

	"deepmd-go/internal/lint"
)

// Config controls a standalone run.
type Config struct {
	// Dir is any directory inside the module (the module root is found
	// by walking up to go.mod).
	Dir string
	// BuildTags are extra build constraints (e.g. "purego").
	BuildTags []string
	// ExtraRoot, when set, resolves import paths that are neither
	// module-internal nor stdlib against this directory (the linttest
	// fixture tree).
	ExtraRoot string
	// Patterns selects the packages whose diagnostics are reported:
	// "./..." for the whole module, "./dir/..." for a subtree, "./dir"
	// for one package, or (with ExtraRoot) bare fixture import paths.
	// Dependencies are always loaded and analyzed for facts; only
	// pattern-matched packages report.
	Patterns []string
}

// Diag is one reported diagnostic with its analyzer attribution.
type Diag struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Run loads the selected packages (and their module dependencies, in
// dependency order), runs every analyzer over each, and returns the
// diagnostics of pattern-matched packages sorted by position.
func Run(cfg Config, analyzers []*lint.Analyzer) ([]Diag, error) {
	l, err := newLoader(cfg)
	if err != nil {
		return nil, err
	}
	targets, err := l.expandPatterns(cfg.Patterns)
	if err != nil {
		return nil, err
	}
	isTarget := map[*loadedPkg]bool{}
	for _, path := range targets {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		isTarget[p] = true
		xp, err := l.loadXTest(path)
		if err != nil {
			return nil, err
		}
		if xp != nil {
			isTarget[xp] = true
		}
	}

	facts := lint.NewMemFacts()
	var diags []Diag
	for _, p := range l.order { // dependency order: facts flow forward
		diags = append(diags, runPackage(l.fset, p, l.modulePath, facts, analyzers, isTarget[p])...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// runPackage builds the Pass for one loaded package and runs the suite.
// Facts are always exported; diagnostics are collected only when report
// is set.
func runPackage(fset *token.FileSet, p *loadedPkg, module string, facts *lint.MemFacts, analyzers []*lint.Analyzer, report bool) []Diag {
	ann := lint.BuildAnnotations(fset, p.files, p.info)
	var diags []Diag
	if report {
		for _, d := range ann.Malformed {
			diags = append(diags, Diag{Analyzer: "dplint", Pos: fset.Position(d.Pos), Message: d.Message})
		}
	}
	facts.Current = p.pkg
	for _, a := range analyzers {
		a := a
		pass := &lint.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     p.files,
			Pkg:       p.pkg,
			TypesInfo: p.info,
			Module:    module,
			Ann:       ann,
			Facts:     facts,
			Report: func(d lint.Diagnostic) {
				if report {
					diags = append(diags, Diag{Analyzer: a.Name, Pos: fset.Position(d.Pos), Message: d.Message})
				}
			},
		}
		if err := a.Run(pass); err != nil && report {
			diags = append(diags, Diag{Analyzer: a.Name, Pos: token.Position{Filename: p.path}, Message: "analyzer error: " + err.Error()})
		}
	}
	return diags
}

type loadedPkg struct {
	path  string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type loader struct {
	fset       *token.FileSet
	ctxt       build.Context
	moduleDir  string
	modulePath string
	extraRoot  string
	std        types.Importer
	pkgs       map[string]*loadedPkg
	loading    map[string]bool
	order      []*loadedPkg
}

func newLoader(cfg Config) (*loader, error) {
	dir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.BuildTags = append([]string(nil), cfg.BuildTags...)
	fset := token.NewFileSet()
	return &loader{
		fset:       fset,
		ctxt:       ctxt,
		moduleDir:  modDir,
		modulePath: modPath,
		extraRoot:  cfg.ExtraRoot,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*loadedPkg{},
		loading:    map[string]bool{},
	}, nil
}

func findModule(dir string) (modDir, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("dplint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("dplint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// dirFor maps an import path to its source directory, or ok=false for
// stdlib paths.
func (l *loader) dirFor(path string) (string, bool) {
	if path == l.modulePath {
		return l.moduleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), true
	}
	if l.extraRoot != "" {
		dir := filepath.Join(l.extraRoot, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// expandPatterns resolves the pattern list to module (or fixture)
// import paths, sorted.
func (l *loader) expandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || strings.HasSuffix(pat, "/..."):
			rel := strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "...")
			rel = strings.TrimSuffix(rel, "/")
			root := filepath.Join(l.moduleDir, filepath.FromSlash(rel))
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				if _, err := l.ctxt.ImportDir(p, 0); err == nil {
					relp, _ := filepath.Rel(l.moduleDir, p)
					if relp == "." {
						add(l.modulePath)
					} else {
						add(l.modulePath + "/" + filepath.ToSlash(relp))
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		case strings.HasPrefix(pat, "./") || pat == ".":
			rel := strings.TrimPrefix(pat, "./")
			if rel == "" || rel == "." {
				add(l.modulePath)
			} else {
				add(l.modulePath + "/" + filepath.ToSlash(rel))
			}
		default:
			add(pat) // fixture or fully-qualified import path
		}
	}
	sort.Strings(out)
	return out, nil
}

// load type-checks one module or fixture package together with its
// in-package _test.go files (memoized), loading its module dependencies
// first so analyzer facts are available.
func (l *loader) load(path string) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("dplint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	bp, err := l.importDir(path)
	if err != nil {
		return nil, err
	}
	p, err := l.check(path, bp.Dir, append(bp.GoFiles, bp.TestGoFiles...))
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadXTest type-checks the external test package of path (its
// package x_test files) as the unit path+"_test", or returns nil when
// there is none.
func (l *loader) loadXTest(path string) (*loadedPkg, error) {
	bp, err := l.importDir(path)
	if err != nil || len(bp.XTestGoFiles) == 0 {
		return nil, err
	}
	return l.check(path+"_test", bp.Dir, bp.XTestGoFiles)
}

func (l *loader) importDir(path string) (*build.Package, error) {
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("dplint: %s is not a module or fixture package", path)
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("dplint: %s: %w", path, err)
	}
	return bp, nil
}

// check parses the named files of dir, loads their module-internal
// imports (depth-first, so l.order stays a topological order), and
// type-checks them as the package path.
func (l *loader) check(path, dir string, names []string) (*loadedPkg, error) {
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	for _, f := range files {
		for _, spec := range f.Imports {
			imp := strings.Trim(spec.Path.Value, `"`)
			if _, ok := l.dirFor(imp); ok {
				if _, err := l.load(imp); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if imp == "unsafe" {
				return types.Unsafe, nil
			}
			if _, ok := l.dirFor(imp); ok {
				p, err := l.load(imp)
				if err != nil {
					return nil, err
				}
				return p.pkg, nil
			}
			return l.std.Import(imp)
		}),
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("dplint: type-checking %s: %w", path, err)
	}
	p := &loadedPkg{path: path, pkg: pkg, files: files, info: info}
	l.order = append(l.order, p)
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
