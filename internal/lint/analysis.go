package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// Analyzer is one named check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the passes read like standard vet
// analyzers, but it is self-contained: Run receives a Pass built by the
// source-loading driver (internal/lint/driver) and reports diagnostics
// through it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the Pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's syntax, types and fact store through one
// analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module is the module path of the package under analysis ("" for
	// packages outside any module, e.g. the standard library). Analyzers
	// use it to distinguish module-internal callees (whose summaries the
	// facts mechanism carries) from stdlib ones (allowlisted).
	Module string

	// Ann is the parsed //dp: annotation index of this package.
	Ann *Annotations

	// Report delivers one diagnostic. The driver wraps it with the
	// //dp:allow suppression filter before handing the Pass to Run.
	Report func(Diagnostic)

	Facts *MemFacts
}

// Reportf reports a formatted diagnostic at pos unless a //dp:allow
// annotation for this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Ann != nil && p.Ann.allowed(p.Analyzer.Name, p.Fset.Position(pos)) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Posn renders a position compactly (base filename:line) for reason
// chains that must stay stable across machines and fixtures.
func (p *Pass) Posn(pos token.Pos) string {
	posn := p.Fset.Position(pos)
	name := posn.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, posn.Line)
}

// A Fact is a unit of analysis state attached to a package or one of its
// objects, visible to later passes over importing packages. Facts are
// pointers to plain structs: the store keeps the exported value and
// copies it into the importer's.
type Fact interface{ AFact() }

// factKey names one fact: object is "" for package facts, "F" for a
// package-level function, "T.M" for a method of named type T, and typ is
// the fact's dynamic type.
type factKey struct {
	object string
	typ    reflect.Type
}

// ObjectKey returns the name under which obj carries facts across
// packages, or ok=false when the object kind cannot be named that way.
// Only functions and methods of named types are nameable, which for this
// suite (function summaries, payload registries) is exactly what is
// needed.
func ObjectKey(obj types.Object) (string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if p, isPtr := rt.(*types.Pointer); isPtr {
			rt = p.Elem()
		}
		t, ok := rt.(*types.Named)
		if !ok {
			// An interface method via an embedded anonymous interface
			// is not addressable by name.
			return "", false
		}
		return t.Obj().Name() + "." + fn.Name(), true
	}
	return fn.Name(), true
}

// MemFacts moves facts between the packages of one run: the driver
// analyzes packages in dependency order over one store, so every import
// finds the facts its dependencies exported.
type MemFacts struct {
	// Current is the package currently being analyzed; exports go here.
	Current *types.Package
	byPkg   map[string]map[factKey]Fact
}

// NewMemFacts returns an empty store.
func NewMemFacts() *MemFacts {
	return &MemFacts{byPkg: map[string]map[factKey]Fact{}}
}

func (m *MemFacts) set(path string, key factKey, fact Fact) {
	mp := m.byPkg[path]
	if mp == nil {
		mp = map[factKey]Fact{}
		m.byPkg[path] = mp
	}
	mp[key] = fact
}

func (m *MemFacts) get(path string, key factKey, fact Fact) bool {
	stored, ok := m.byPkg[path][key]
	if ok {
		reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	}
	return ok
}

// ExportObjectFact attaches fact to obj (which must belong to the
// package under analysis).
func (m *MemFacts) ExportObjectFact(obj types.Object, fact Fact) {
	key, ok := ObjectKey(obj)
	if !ok || obj.Pkg() == nil {
		return
	}
	m.set(obj.Pkg().Path(), factKey{key, reflect.TypeOf(fact)}, fact)
}

// ImportObjectFact loads the fact of fact's type attached to obj into
// fact, reporting whether one exists.
func (m *MemFacts) ImportObjectFact(obj types.Object, fact Fact) bool {
	key, ok := ObjectKey(obj)
	if !ok || obj.Pkg() == nil {
		return false
	}
	return m.get(obj.Pkg().Path(), factKey{key, reflect.TypeOf(fact)}, fact)
}

// ExportPackageFact attaches fact to the package under analysis.
func (m *MemFacts) ExportPackageFact(fact Fact) {
	if m.Current == nil {
		return
	}
	m.set(m.Current.Path(), factKey{"", reflect.TypeOf(fact)}, fact)
}

// ImportPackageFact loads pkg's fact of fact's type into fact.
func (m *MemFacts) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if pkg == nil {
		return false
	}
	return m.get(pkg.Path(), factKey{"", reflect.TypeOf(fact)}, fact)
}
