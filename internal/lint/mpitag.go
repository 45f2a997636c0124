package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MpitagAnalyzer enforces the MPI wire discipline:
//
//   - the tag argument of Comm.Send/Recv/Irecv/Bcast/Allreduce must
//     involve a named constant (raw integer literals collide silently
//     between protocols — the tag space is an API);
//   - a payload crossing Send/Bcast must be one of the wire codec's
//     three kinds ([]float64, []int64, []byte) — anything else panics at
//     runtime on either transport, possibly only at scale, on the rank
//     the test matrix never ran.
var MpitagAnalyzer = &Analyzer{
	Name: "mpitag",
	Doc:  "require named MPI tags and wire-codec payload kinds at Comm call sites",
	Run:  runMpitag,
}

const mpiPath = "internal/mpi"

func isMpiPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == mpiPath || strings.HasSuffix(pkg.Path(), "/"+mpiPath))
}

// commTagArg maps Comm method name to the index of its tag argument.
var commTagArg = map[string]int{
	"Send": 1, "Recv": 1, "Irecv": 1, "Bcast": 1, "Allreduce": 0,
}

// commPayloadArg maps Comm method name to the index of its `any`
// payload argument.
var commPayloadArg = map[string]int{"Send": 2, "Bcast": 2}

func runMpitag(pass *Pass) error {
	if pass.Module == "" {
		return nil
	}

	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue // transport tests exercise raw tags deliberately
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.TypesInfo, call)
			if fn == nil || !isCommMethod(fn) {
				return true
			}
			if idx, ok := commTagArg[fn.Name()]; ok && idx < len(call.Args) {
				checkTagArg(pass, fn.Name(), call.Args[idx])
			}
			if idx, ok := commPayloadArg[fn.Name()]; ok && idx < len(call.Args) {
				checkPayloadArg(pass, fn.Name(), call.Args[idx])
			}
			return true
		})
	}
	return nil
}

// isCommMethod reports whether fn is a method of mpi.Comm.
func isCommMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Comm" && isMpiPkg(named.Obj().Pkg())
}

// checkTagArg requires the tag expression to reference at least one
// named constant, variable, or parameter.
func checkTagArg(pass *Pass, method string, arg ast.Expr) {
	hasName := false
	hasLit := false
	ast.Inspect(arg, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				switch obj.(type) {
				case *types.Const, *types.Var, *types.Func:
					hasName = true
				}
			}
		case *ast.BasicLit:
			hasLit = true
		}
		return true
	})
	if hasLit && !hasName {
		pass.Reportf(arg.Pos(), "raw integer literal as %s tag: use a named tag constant so protocols cannot collide silently", method)
	}
}

// checkPayloadArg requires payloads to be one of the wire codec's kinds.
func checkPayloadArg(pass *Pass, method string, arg ast.Expr) {
	t := pass.TypesInfo.TypeOf(arg)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return // forwarding an `any` someone else built: checked at its origin
	}
	if !wirePayloadKind(t) {
		pass.Reportf(arg.Pos(), "%s payload type %s is not a wire-codec kind ([]float64, []int64 or []byte); it cannot cross a Comm",
			method, types.TypeString(t, types.RelativeTo(pass.Pkg)))
	}
}

// wirePayloadKind matches the wire codec's type switch exactly: the
// dynamic type must be one of these unnamed slice types to hit a case.
func wirePayloadKind(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().(*types.Basic)
	return ok && (b.Kind() == types.Float64 || b.Kind() == types.Int64 || b.Kind() == types.Uint8)
}
