package lint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the passes read like standard vet
// analyzers, but it is self-contained: Run receives a Pass built by
// either driver (standalone source loading or the go vet unitchecker
// protocol) and reports diagnostics through it.
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

	Facts FactStore
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

// A Fact is a gob-serializable unit of analysis state attached to a
// package or one of its objects, visible to later passes over importing
// packages. Facts survive process boundaries in vettool mode (.vetx
// files), so they must be plain data.
type Fact interface{ AFact() }

// FactKey names one fact: Object is "" for package facts, "F" for a
// package-level function, "T.M" for a method of named type T. Only
// objects reachable through the export data can carry cross-package
// facts, which for this suite (function summaries, payload registries)
// is exactly what is needed.
type FactKey struct {
	Object string
	Type   string
}

// ObjectKey returns the fact key component for obj, or ok=false when the
// object kind cannot be named across packages.
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
		switch t := rt.(type) {
		case *types.Named:
			return t.Obj().Name() + "." + fn.Name(), true
		case *types.Interface:
			// Interface method via an embedded anonymous interface —
			// not addressable by name.
			return "", false
		default:
			return "", false
		}
	}
	return fn.Name(), true
}

// FactStore moves facts between packages. The standalone driver holds an
// in-memory store over all loaded packages; the unitchecker driver reads
// dependency .vetx files lazily and writes this package's facts out for
// its dependents. Both speak the same serialized representation so the
// two modes cannot drift.
type FactStore interface {
	// ExportObjectFact attaches fact to obj (which must belong to the
	// package under analysis).
	ExportObjectFact(obj types.Object, fact Fact)
	// ImportObjectFact loads the fact of fact's type attached to obj
	// into fact, reporting whether one exists.
	ImportObjectFact(obj types.Object, fact Fact) bool
	// ExportPackageFact attaches fact to the package under analysis.
	ExportPackageFact(fact Fact)
	// ImportPackageFact loads pkg's fact of fact's type into fact.
	ImportPackageFact(pkg *types.Package, fact Fact) bool
}

// MemFacts is the shared FactStore implementation: a per-package map of
// serialized facts plus an optional lazy loader for packages analyzed in
// a previous process (vettool mode).
type MemFacts struct {
	// Current is the package currently being analyzed; exports go here.
	Current *types.Package
	byPkg   map[string]map[FactKey][]byte
	// Load fetches the fact map of a package analyzed elsewhere (nil
	// when everything is in memory). Returning nil, nil means "no facts
	// recorded", which is normal for stdlib packages.
	Load func(path string) (map[FactKey][]byte, error)
}

// NewMemFacts returns an empty store with an optional lazy loader.
func NewMemFacts(load func(path string) (map[FactKey][]byte, error)) *MemFacts {
	return &MemFacts{byPkg: map[string]map[FactKey][]byte{}, Load: load}
}

func factType(f Fact) string { return fmt.Sprintf("%T", f) }

func (m *MemFacts) pkgMap(path string) map[FactKey][]byte {
	if mp, ok := m.byPkg[path]; ok {
		return mp
	}
	var mp map[FactKey][]byte
	if m.Load != nil {
		mp, _ = m.Load(path)
	}
	if mp == nil {
		mp = map[FactKey][]byte{}
	}
	m.byPkg[path] = mp
	return mp
}

func (m *MemFacts) set(path string, key FactKey, fact Fact) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		panic(fmt.Sprintf("lint: encoding fact %T: %v", fact, err))
	}
	m.pkgMap(path)[key] = buf.Bytes()
}

func (m *MemFacts) get(path string, key FactKey, fact Fact) bool {
	b, ok := m.pkgMap(path)[key]
	if !ok {
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(fact); err != nil {
		return false
	}
	return true
}

// ExportObjectFact implements FactStore.
func (m *MemFacts) ExportObjectFact(obj types.Object, fact Fact) {
	key, ok := ObjectKey(obj)
	if !ok || obj.Pkg() == nil {
		return
	}
	m.set(obj.Pkg().Path(), FactKey{Object: key, Type: factType(fact)}, fact)
}

// ImportObjectFact implements FactStore.
func (m *MemFacts) ImportObjectFact(obj types.Object, fact Fact) bool {
	key, ok := ObjectKey(obj)
	if !ok || obj.Pkg() == nil {
		return false
	}
	return m.get(obj.Pkg().Path(), FactKey{Object: key, Type: factType(fact)}, fact)
}

// ExportPackageFact implements FactStore.
func (m *MemFacts) ExportPackageFact(fact Fact) {
	if m.Current == nil {
		return
	}
	m.set(m.Current.Path(), FactKey{Type: factType(fact)}, fact)
}

// ImportPackageFact implements FactStore.
func (m *MemFacts) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if pkg == nil {
		return false
	}
	return m.get(pkg.Path(), FactKey{Type: factType(fact)}, fact)
}

// PackageFacts returns the serialized fact map of one package (for the
// unitchecker driver to write as the .vetx output). The map is never
// nil.
func (m *MemFacts) PackageFacts(path string) map[FactKey][]byte {
	return m.pkgMap(path)
}
