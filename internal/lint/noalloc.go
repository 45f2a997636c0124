package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoallocFact is the per-function allocation summary the facts mechanism
// carries across packages: exported module functions get one whether or
// not they are annotated, so a //dp:noalloc root two packages up the
// import graph can see exactly which callee allocates and why.
type NoallocFact struct {
	Clean  bool
	Reason string // first allocating construct, as a "desc at file:line" chain
}

// AFact marks NoallocFact as a fact.
func (*NoallocFact) AFact() {}

// NoallocAnalyzer verifies //dp:noalloc functions: their steady-state
// bodies — and transitively every module callee's — must contain no
// allocation-inducing construct. Cold paths (blocks that end by
// returning a non-nil error or panicking) are exempt: allocating while
// bailing out does not violate the steady state the AllocsPerRun tests
// measure. //dp:warmup marks helpers whose only allocations are
// one-time buffer growth (tensor.Resize and friends); they are trusted
// here and asserted dynamically.
var NoallocAnalyzer = &Analyzer{
	Name: "noalloc",
	Doc:  "check that //dp:noalloc functions are steady-state allocation-free, transitively",
	Run:  runNoalloc,
}

// noallocCleanStdlib lists stdlib packages every function of which is
// allocation-free (value-kernel math and atomics).
var noallocCleanStdlib = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
	"unsafe":      true,
}

// noallocCleanFuncs allowlists individual stdlib functions and methods
// ("pkg.F" or "pkg.T.M", pointer receivers included) that are
// allocation-free on their steady path.
var noallocCleanFuncs = map[string]bool{
	"time.Now":                   true,
	"time.Since":                 true,
	"time.Time.Sub":              true,
	"time.Time.Add":              true,
	"time.Time.Before":           true,
	"time.Time.After":            true,
	"time.Time.Compare":          true,
	"time.Time.Equal":            true,
	"time.Time.IsZero":           true,
	"time.Duration.Seconds":      true,
	"time.Duration.Minutes":      true,
	"time.Duration.Hours":        true,
	"time.Timer.Reset":           true,
	"time.Timer.Stop":            true,
	"sync.Mutex.Lock":            true,
	"sync.Mutex.Unlock":          true,
	"sync.Mutex.TryLock":         true,
	"sync.RWMutex.Lock":          true,
	"sync.RWMutex.Unlock":        true,
	"sync.RWMutex.RLock":         true,
	"sync.RWMutex.RUnlock":       true,
	"sync.Cond.Wait":             true,
	"sync.Cond.Broadcast":        true,
	"sync.WaitGroup.Add":         true,
	"sync.WaitGroup.Done":        true,
	"sync.WaitGroup.Wait":        true,
	"sync.Pool.Get":              true, // New only fires while the pool warms up
	"sync.Pool.Put":              true,
	"math/rand.Rand.Float64":     true,
	"math/rand.Rand.NormFloat64": true,
	"math/rand.Rand.Intn":        true,
	"math/rand.Rand.Int63":       true,
}

type allocInfo struct {
	clean  bool
	reason string
}

type noallocChecker struct {
	pass   *Pass
	declOf map[*types.Func]*ast.FuncDecl
	memo   map[*types.Func]*allocInfo
	onPath map[*types.Func]bool
	// asserted marks expressions whose interface conversion is consumed
	// directly by a type assertion; rebuilt per checked body.
	asserted map[ast.Expr]bool
	// localClosures maps local variables bound once to a function literal
	// and only ever used in call position: such closures never escape, so
	// their creation is free and their bodies are charged to the caller.
	localClosures map[*types.Var]*ast.FuncLit
}

func runNoalloc(pass *Pass) error {
	// Standard-library packages are never summarized (the allowlist
	// governs them); fact export is for module code.
	if pass.Module == "" {
		return nil
	}
	c := &noallocChecker{
		pass:   pass,
		declOf: map[*types.Func]*ast.FuncDecl{},
		memo:   map[*types.Func]*allocInfo{},
		onPath: map[*types.Func]bool{},
	}
	var roots []*ast.FuncDecl
	var exported []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.declOf[fn] = fd
			if pass.Ann.FuncMark(fn) == MarkNoalloc {
				roots = append(roots, fd)
			}
			if key, ok := ObjectKey(fn); ok && ast.IsExported(fd.Name.Name) &&
				(!strings.Contains(key, ".") || ast.IsExported(strings.SplitN(key, ".", 2)[0])) {
				exported = append(exported, fn)
			}
		}
	}

	// Verify every annotated root in place.
	for _, fd := range roots {
		if fd.Body == nil {
			continue
		}
		fn := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		c.checkBody(fn, fd, func(pos token.Pos, msg string) {
			pass.Reportf(pos, "%s (function is //dp:noalloc)", msg)
		})
	}

	// Summarize every exported function so importing packages can check
	// their own roots against this package without re-reading it.
	for _, fn := range exported {
		info := c.summarize(fn)
		pass.Facts.ExportObjectFact(fn, &NoallocFact{Clean: info.clean, Reason: info.reason})
	}
	// Interface-method contracts cross packages through facts too.
	for obj, mark := range pass.Ann.funcMarks {
		fn, ok := obj.(*types.Func)
		if !ok || mark == MarkNone {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				pass.Facts.ExportObjectFact(fn, &NoallocFact{Clean: true})
			}
		}
	}
	return nil
}

// summarize computes (memoized) whether fn's steady-state path is
// allocation-free. Recursion through cycles is resolved optimistically:
// a cycle member is clean unless some body on the cycle allocates.
func (c *noallocChecker) summarize(fn *types.Func) *allocInfo {
	if info, ok := c.memo[fn]; ok {
		return info
	}
	if c.onPath[fn] {
		return &allocInfo{clean: true}
	}

	pass := c.pass
	if fn.Pkg() == nil {
		return c.memoize(fn, &allocInfo{clean: false, reason: "call into the universe scope"})
	}
	if fn.Pkg() != pass.Pkg {
		var fact NoallocFact
		if pass.Facts.ImportObjectFact(fn, &fact) {
			return c.memoize(fn, &allocInfo{clean: fact.Clean, reason: fact.Reason})
		}
		return c.memoize(fn, c.allowlisted(fn))
	}

	switch pass.Ann.FuncMark(fn) {
	case MarkNoalloc:
		// Checked at its own declaration site; trusted here.
		return c.memoize(fn, &allocInfo{clean: true})
	case MarkWarmup:
		// Warm-up growth only; the AllocsPerRun tests assert the claim.
		return c.memoize(fn, &allocInfo{clean: true})
	}

	decl := c.declOf[fn]
	if decl == nil || decl.Body == nil {
		// Assembly stubs (and bodies declared in files outside this
		// build) perform no heap allocation themselves.
		return c.memoize(fn, &allocInfo{clean: true})
	}

	c.onPath[fn] = true
	info := &allocInfo{clean: true}
	c.checkBody(fn, decl, func(pos token.Pos, msg string) {
		if info.clean {
			info.clean = false
			info.reason = fmt.Sprintf("%s at %s", msg, pass.Posn(pos))
		}
	})
	delete(c.onPath, fn)
	return c.memoize(fn, info)
}

func (c *noallocChecker) memoize(fn *types.Func, info *allocInfo) *allocInfo {
	c.memo[fn] = info
	return info
}

// allowlisted classifies a function outside the module (no fact).
func (c *noallocChecker) allowlisted(fn *types.Func) *allocInfo {
	path := fn.Pkg().Path()
	if noallocCleanStdlib[path] {
		return &allocInfo{clean: true}
	}
	key, ok := ObjectKey(fn)
	if ok && noallocCleanFuncs[path+"."+key] {
		return &allocInfo{clean: true}
	}
	return &allocInfo{clean: false, reason: fmt.Sprintf("%s.%s is not on the noalloc allowlist", path, fn.Name())}
}

// coldRanges returns the position intervals of blocks that end by
// returning a non-nil error or panicking: the bail-out paths a
// steady-state allocation check must not charge.
func coldRanges(pass *Pass, body *ast.BlockStmt) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok || len(blk.List) == 0 {
			return true
		}
		switch last := blk.List[len(blk.List)-1].(type) {
		case *ast.ReturnStmt:
			if returnsError(pass, last) {
				ranges = append(ranges, [2]token.Pos{blk.Pos(), blk.End()})
			}
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok && isBuiltin(pass.TypesInfo, call.Fun, "panic") {
				ranges = append(ranges, [2]token.Pos{blk.Pos(), blk.End()})
			}
		}
		return true
	})
	return ranges
}

// returnsError reports whether ret's final result is a non-nil
// error-typed expression.
func returnsError(pass *Pass, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	tv, ok := pass.TypesInfo.Types[last]
	if !ok || tv.IsNil() {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// checkBody walks one function body and invokes report for every
// allocation-inducing construct on the steady-state (non-cold) path.
func (c *noallocChecker) checkBody(fn *types.Func, decl *ast.FuncDecl, report func(token.Pos, string)) {
	pass := c.pass
	info := pass.TypesInfo
	cold := coldRanges(pass, decl.Body)
	isCold := func(pos token.Pos) bool {
		// The function's own body block qualifies only if the function
		// unconditionally ends on an error return, which is fine to
		// treat as cold: such a function has no steady state.
		for _, r := range cold {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}
	emit := func(pos token.Pos, format string, args ...any) {
		if isCold(pos) {
			return
		}
		// //dp:allow noalloc also exempts a construct from this package's
		// exported summaries, not just from direct diagnostics, so an
		// allowed fan-out (e.g. the parallel GEMM path) does not poison
		// every annotated caller upstream.
		if pass.Ann != nil && pass.Ann.allowed("noalloc", pass.Fset.Position(pos)) {
			return
		}
		report(pos, fmt.Sprintf(format, args...))
	}

	// Appends whose result is assigned back over their first argument
	// grow a reused buffer in place — amortized-zero after warm-up.
	inPlaceAppend := map[*ast.CallExpr]bool{}
	// Function expressions in call position are callees, not values.
	calleeExpr := map[ast.Expr]bool{}
	// Interface conversions consumed directly by a type assertion
	// (any(x).(U)) never escape and do not allocate. checkBody re-enters
	// through summarize while walking, so the set is saved and restored.
	savedAsserted := c.asserted
	c.asserted = map[ast.Expr]bool{}
	savedClosures := c.localClosures
	c.localClosures = map[*types.Var]*ast.FuncLit{}
	defer func() { c.asserted = savedAsserted; c.localClosures = savedClosures }()
	loopDepth := func(pos token.Pos) int {
		// Loops only count from the innermost function literal enclosing
		// pos inward: a defer inside a per-iteration closure runs once per
		// closure invocation, not once per loop iteration.
		scope := token.Pos(0)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit.Pos() <= pos && pos < lit.End() && lit.Pos() > scope {
				scope = lit.Pos()
			}
			return true
		})
		depth := 0
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				if n.Pos() >= scope && n.Pos() <= pos && pos < n.End() {
					depth++
				}
			}
			return true
		})
		return depth
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltin(info, call.Fun, "append") && len(call.Args) > 0 {
					base := call.Args[0]
					// x = append(x[:k], ...) reuses x's backing array
					// exactly like x = append(x, ...) does.
					if sl, ok := base.(*ast.SliceExpr); ok && !sl.Slice3 {
						base = sl.X
					}
					if exprString(s.Lhs[0]) == exprString(base) {
						inPlaceAppend[call] = true
					}
				}
				if lit, ok := s.Rhs[0].(*ast.FuncLit); ok && s.Tok == token.DEFINE {
					if id, ok := s.Lhs[0].(*ast.Ident); ok {
						if v, ok := info.Defs[id].(*types.Var); ok {
							c.localClosures[v] = lit
						}
					}
				}
			}
		case *ast.CallExpr:
			calleeExpr[s.Fun] = true
		case *ast.TypeAssertExpr:
			c.asserted[ast.Unparen(s.X)] = true
		case *ast.TypeSwitchStmt:
			if as, ok := s.Assign.(*ast.ExprStmt); ok {
				if ta, ok := as.X.(*ast.TypeAssertExpr); ok {
					c.asserted[ast.Unparen(ta.X)] = true
				}
			} else if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if ta, ok := as.Rhs[0].(*ast.TypeAssertExpr); ok {
					c.asserted[ast.Unparen(ta.X)] = true
				}
			}
		}
		return true
	})

	// A bound closure qualifies only if every use of its variable is a
	// direct call (it never escapes then, so neither creation nor call
	// allocates; the body is charged inline below). A reassignment or a
	// value use disqualifies it.
	if len(c.localClosures) > 0 {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok != token.DEFINE {
				for _, lhs := range as.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							delete(c.localClosures, v)
						}
					}
				}
				return true
			}
			id, ok := n.(*ast.Ident)
			if !ok || calleeExpr[id] {
				return true
			}
			if v, ok := info.Uses[id].(*types.Var); ok {
				delete(c.localClosures, v)
			}
			return true
		})
	}
	calledLit := map[*ast.FuncLit]bool{}
	for _, lit := range c.localClosures {
		calledLit[lit] = true
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			// Closures bound to call-only locals and immediately-invoked
			// literals run as part of this body: descend and charge their
			// constructs here; their creation itself is escape-free.
			if calledLit[s] || calleeExpr[s] {
				return true
			}
			if capturesLocals(info, s) {
				emit(s.Pos(), "function literal allocates a closure")
			}
			return false // the literal's own body is the closure's problem
		case *ast.CompositeLit:
			switch info.TypeOf(s).Underlying().(type) {
			case *types.Slice:
				emit(s.Pos(), "slice literal allocates")
			case *types.Map:
				emit(s.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if _, ok := s.X.(*ast.CompositeLit); ok {
					emit(s.Pos(), "&composite literal allocates")
				}
			}
		case *ast.GoStmt:
			emit(s.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			if loopDepth(s.Pos()) > 0 {
				emit(s.Pos(), "defer in a loop allocates per iteration")
			}
		case *ast.BinaryExpr:
			if s.Op == token.ADD {
				if t, ok := info.TypeOf(s).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					if tv, ok := info.Types[s]; !ok || tv.Value == nil {
						emit(s.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.CallExpr:
			c.checkCall(fn, s, inPlaceAppend, emit)
		case *ast.SelectorExpr:
			// A method used as a value (not called) allocates a bound-
			// method closure.
			if !calleeExpr[s] {
				if sel, ok := info.Selections[s]; ok && sel.Kind() == types.MethodVal {
					emit(s.Pos(), "method value allocates a closure")
				}
			}
		}
		return true
	})

	// Implicit interface boxing at assignments, returns, and sends.
	// sigs tracks the result signature a return statement belongs to:
	// the declaration's, or the innermost enclosing function literal's.
	// Inspect closes every visited node with an f(nil) call, so a plain
	// node stack stays balanced.
	sigs := []*types.Signature{fn.Type().(*types.Signature)}
	var stack []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				sigs = sigs[:len(sigs)-1]
			}
			return true
		}
		stack = append(stack, n)
		switch s := n.(type) {
		case *ast.FuncLit:
			if sig, ok := info.TypeOf(s).(*types.Signature); ok {
				sigs = append(sigs, sig)
			} else {
				sigs = append(sigs, types.NewSignatureType(nil, nil, nil, nil, nil, false))
			}
		case *ast.CallExpr:
			c.checkCallBoxing(s, emit)
		case *ast.SendStmt:
			c.checkConversion(s.Value, info.TypeOf(s.Chan), emit)
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, rhs := range s.Rhs {
					if lt := info.TypeOf(s.Lhs[i]); lt != nil {
						c.checkConversion(rhs, lt, emit)
					}
				}
			}
		case *ast.ReturnStmt:
			res := sigs[len(sigs)-1].Results()
			if len(s.Results) == res.Len() {
				for i, e := range s.Results {
					c.checkConversion(e, res.At(i).Type(), emit)
				}
			}
		}
		return true
	})
}

// checkCall classifies one call on the steady path.
func (c *noallocChecker) checkCall(caller *types.Func, call *ast.CallExpr, inPlaceAppend map[*ast.CallExpr]bool, emit func(token.Pos, string, ...any)) {
	pass := c.pass
	info := pass.TypesInfo

	// Conversions, to named and unnamed types alike: T(x), pkg.T(x),
	// (*T)(p), []byte(s), func()(f).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversionExpr(call, emit)
		return
	}

	// Builtins.
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if !inPlaceAppend[call] {
					emit(call.Pos(), "append result is not assigned back to its argument (no in-place proof)")
				}
			case "make":
				emit(call.Pos(), "make allocates")
			case "new":
				emit(call.Pos(), "new allocates")
			case "print", "println":
				emit(call.Pos(), "%s may allocate", b.Name())
			}
			return
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if _, isBuiltin := info.Uses[sel.Sel].(*types.Builtin); isBuiltin {
			return // unsafe.Sizeof and friends: compile-time, no allocation
		}
	}

	callee := calleeOf(info, call)
	if callee == nil {
		// A call through a qualifying bound closure is covered by the
		// inline walk of its literal body.
		if id, ok := fun.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				if _, bound := c.localClosures[v]; bound {
					return
				}
			}
		}
		// Indirect call through a function value: unanalyzable.
		emit(call.Pos(), "indirect call through a function value cannot be proven allocation-free")
		return
	}
	if callee == caller {
		return
	}
	res := c.summarize(callee)
	if !res.clean {
		name := callee.Name()
		if key, ok := ObjectKey(callee); ok {
			name = key
		}
		if callee.Pkg() != nil && callee.Pkg() != pass.Pkg {
			name = callee.Pkg().Name() + "." + name
		}
		if res.reason != "" {
			emit(call.Pos(), "call to %s may allocate: %s", name, res.reason)
		} else {
			emit(call.Pos(), "call to %s may allocate", name)
		}
	}
}

// checkConversionExpr flags allocating type conversions
// (string<->[]byte/[]rune and conversions to interface types).
func (c *noallocChecker) checkConversionExpr(call *ast.CallExpr, emit func(token.Pos, string, ...any)) {
	info := c.pass.TypesInfo
	if len(call.Args) != 1 {
		return
	}
	if c.asserted[call] {
		return // any(x).(U): the box never escapes, the compiler elides it
	}
	to := info.TypeOf(call)
	from := info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return
	}
	tb, toStr := to.Underlying().(*types.Basic)
	fb, fromStr := from.Underlying().(*types.Basic)
	toStr = toStr && tb.Info()&types.IsString != 0
	fromStr = fromStr && fb.Info()&types.IsString != 0
	_, toSlice := to.Underlying().(*types.Slice)
	_, fromSlice := from.Underlying().(*types.Slice)
	if (toStr && fromSlice) || (fromStr && toSlice) {
		if tv, ok := info.Types[call.Args[0]]; !ok || tv.Value == nil {
			emit(call.Pos(), "string/slice conversion allocates")
		}
	}
	c.checkConversion(call.Args[0], to, emit)
}

// checkCallBoxing flags non-pointer values implicitly boxed into
// interface parameters.
func (c *noallocChecker) checkCallBoxing(call *ast.CallExpr, emit func(token.Pos, string, ...any)) {
	info := c.pass.TypesInfo
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.checkConversion(arg, pt, emit)
		}
	}
}

// checkConversion flags expr if assigning it to target boxes a
// non-pointer-shaped value into an interface.
func (c *noallocChecker) checkConversion(expr ast.Expr, target types.Type, emit func(token.Pos, string, ...any)) {
	info := c.pass.TypesInfo
	if target == nil {
		return
	}
	if c.asserted[expr] {
		return // any(x).(U): the box never escapes, the compiler elides it
	}
	if _, ok := target.(*types.TypeParam); ok {
		return // a type parameter is a concrete type per instantiation, not a box
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return
	}
	if _, ok := tv.Type.(*types.TypeParam); ok {
		return // boxing a type parameter depends on the instantiation; not charged
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // already boxed, or pointer-shaped: no allocation
	}
	emit(expr.Pos(), "interface boxing of non-pointer %s allocates", types.TypeString(tv.Type, types.RelativeTo(c.pass.Pkg)))
}

// calleeOf resolves the static callee of a call, or nil for indirect
// calls through function values. Instantiated generic functions and
// methods are normalized to their generic origin, so declaration lookup
// and fact keys are stable across instantiations.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr: // generic instantiation f[T](...), pkg.F[T](...)
		fun = x.X
	case *ast.IndexListExpr: // generic instantiation f[T1, T2](...)
		fun = x.X
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// capturesLocals reports whether lit references variables declared
// outside its own body (free variables). A literal with no captures is a
// static closure and allocates nothing.
func capturesLocals(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		// Package-level variables are not captured; anything declared
		// outside the literal's extent is.
		if v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captures = true
		}
		return true
	})
	return captures
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
