package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// DispatchAnalyzer enforces the kernel-dispatch discipline around
// internal/tensor/cpufeat:
//
//   - a value switch over cpufeat.Family must either cover every family
//     or carry an explicit default — an incomplete switch is a nil
//     column in the dispatch table, silently falling through to
//     whatever code follows;
//   - assembly stub declarations (body-less functions) must be
//     //go:noescape, so the compiler never spills their pointer
//     arguments to the heap behind the kernels' backs;
//   - cpufeat.SetActive may be called only from tests, from cpufeat
//     itself (the env-override path), or from a site annotated
//     //dp:allow dispatch <reason>.
//
// The analyzer applies to cpufeat and every package importing it.
var DispatchAnalyzer = &Analyzer{
	Name: "dispatch",
	Doc:  "enforce complete cpufeat.Family dispatch, //go:noescape stubs, and SetActive call discipline",
	Run:  runDispatch,
}

const cpufeatPath = "internal/tensor/cpufeat"

// familyNames indexes the cpufeat.Family constants by value.
var familyNames = []string{"Generic", "AVX2", "AVX512"}

func isCpufeat(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == cpufeatPath || strings.HasSuffix(pkg.Path(), "/"+cpufeatPath))
}

func runDispatch(pass *Pass) error {
	if pass.Module == "" {
		return nil
	}
	inScope := isCpufeat(pass.Pkg)
	for _, imp := range pass.Pkg.Imports() {
		if isCpufeat(imp) {
			inScope = true
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		testFile := isTestFile(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncDecl:
				if s.Body == nil && !testFile {
					checkNoescape(pass, s)
				}
			case *ast.SwitchStmt:
				checkFamilySwitch(pass, s)
			case *ast.CallExpr:
				checkSetActive(pass, s, testFile)
			}
			return true
		})
	}
	return nil
}

// checkNoescape requires //go:noescape on assembly stub declarations.
func checkNoescape(pass *Pass, decl *ast.FuncDecl) {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			switch {
			case strings.HasPrefix(c.Text, "//go:noescape"):
				return
			case strings.HasPrefix(c.Text, "//go:linkname"):
				return // provided elsewhere, not an assembly stub
			}
		}
	}
	pass.Reportf(decl.Pos(), "assembly stub %s must be declared //go:noescape", decl.Name.Name)
}

// checkFamilySwitch requires switches over cpufeat.Family to cover all
// families or have a default clause.
func checkFamilySwitch(pass *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	t := pass.TypesInfo.TypeOf(sw.Tag)
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Family" || !isCpufeat(named.Obj().Pkg()) {
		return
	}
	covered := map[int64]bool{}
	for _, stmt := range sw.Body.List {
		clause, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			return // explicit default: every value has a column
		}
		for _, e := range clause.List {
			tv, ok := pass.TypesInfo.Types[e]
			if !ok || tv.Value == nil {
				return // non-constant case: give up rather than guess
			}
			if v, exact := constant.Int64Val(tv.Value); exact {
				covered[v] = true
			}
		}
	}
	var missing []string
	for v, name := range familyNames {
		if !covered[int64(v)] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(sw.Pos(), "switch over cpufeat.Family has no default and no case for %s: an unhandled family falls through silently",
			strings.Join(missing, ", "))
	}
}

// checkSetActive restricts cpufeat.SetActive call sites.
func checkSetActive(pass *Pass, call *ast.CallExpr, testFile bool) {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "SetActive" || !isCpufeat(fn.Pkg()) {
		return
	}
	if testFile || isCpufeat(pass.Pkg) {
		return
	}
	pass.Reportf(call.Pos(), "cpufeat.SetActive may only be called from tests or cpufeat's env-override path; annotate deliberate sweeps with //dp:allow %s <reason>", pass.Analyzer.Name)
}
