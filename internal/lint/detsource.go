package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// detCritical is the set of packages whose outputs feed the
// common-random-number comparison or the serialized artifacts
// (evaluation-store records, run reports, goldens). Nondeterminism anywhere in here
// breaks the paper's paired-comparison variance reduction or the
// byte-identity guarantees, so wall-clock reads, global RNG state,
// scheduler-dependent selects and order-unstable map iteration are all
// findings unless individually audited with //diversify:allow-nondet.
var detCritical = map[string]bool{
	"diversify/internal/des":        true,
	"diversify/internal/malware":    true,
	"diversify/internal/rotation":   true,
	"diversify/internal/rng":        true,
	"diversify/internal/indicators": true,
	"diversify/internal/optimize":   true,
	"diversify/internal/trace":      true,
}

// DetSource flags nondeterminism sources in determinism-critical
// packages.
var DetSource = &Analyzer{
	Name: "detsource",
	Doc: "flags wall-clock reads, math/rand globals, select-with-default and " +
		"order-unstable map iteration in determinism-critical packages",
	Directive: "allow-nondet",
	Applies:   func(pkgPath string) bool { return detCritical[pkgPath] },
	Run:       runDetSource,
}

// wallClockFuncs is the denylist of package time functions that read or
// arm the wall clock. time.Since was the only derived read caught at
// first; the step-9 sweep added the timer/ticker constructors, whose
// channels fire on wall time and so leak scheduling nondeterminism into
// anything that selects on them. time.Sleep is deliberately absent: it
// delays without producing a value, so it cannot change seeded outputs
// (the panic-retry backoff in optimize depends on that distinction).
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"NewTimer":  true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
}

// isWallClockFunc reports whether obj is a denylisted package-level
// time function.
func isWallClockFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()]
}

func runDetSource(pass *Pass) {
	for id, obj := range pass.Info.Uses {
		switch {
		case isWallClockFunc(obj):
			pass.Reportf(id.Pos(), "wall-clock read time.%s in determinism-critical package %s: route it through an injectable clock", obj.Name(), pass.Path)
		case isRandGlobal(obj):
			pass.Reportf(id.Pos(), "global RNG %s.%s in determinism-critical package %s: use the seeded streams in internal/rng", obj.Pkg().Path(), obj.Name(), pass.Path)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectStmt:
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
						pass.Reportf(cc.Pos(), "select with default branch: which arm runs depends on scheduling, not on the seeded inputs")
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRangeAppends(pass.Info, n.Body, pass.Reportf)
				}
			}
			return true
		})
	}
}

// isRandGlobal reports whether obj is package-level state or a
// package-level function of math/rand or math/rand/v2 — the shared,
// non-seedable-per-stream RNG the CRN discipline forbids. Methods on an
// explicit *rand.Rand are the rnggate analyzer's problem (the import
// itself is banned outside internal/rng).
func isRandGlobal(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "math/rand" || p == "math/rand/v2"
}

// checkMapRangeAppends flags `for ... := range m { out = append(out, ...) }`
// where m is a map, out is declared outside the range statement and no
// later statement in the same function sorts out. Map iteration order
// is randomized per run, so the appended order leaks into whatever out
// becomes — a return value, a serialized store record — unless a
// sort restores a canonical order (topology.AddNode's
// collect-then-slices.SortFunc of a node's classes is the blessed shape).
// Index writes and scalar accumulation inside map ranges are
// order-insensitive and not flagged.
// Findings go through report so both detsource (per-package) and the
// call-graph source collector (whole-program) share one definition of
// "order-unstable map iteration feeding output".
func checkMapRangeAppends(info *types.Info, body *ast.BlockStmt, report func(token.Pos, string, ...any)) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(inner ast.Node) bool {
			if ret, ok := inner.(*ast.ReturnStmt); ok {
				checkMapRangeReturn(info, rng, ret, report)
				return true
			}
			asg, ok := inner.(*ast.AssignStmt)
			if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
				return true
			}
			call, ok := asg.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isAppendCall(info, call) {
				return true
			}
			root, path, ok := refPath(info, asg.Lhs[0])
			if !ok {
				return true
			}
			// Loop-local accumulators reset each iteration are harmless.
			if root.Pos() >= rng.Pos() && root.Pos() < rng.End() {
				return true
			}
			if sortedAfter(info, body, rng, root, path) {
				return true
			}
			report(asg.Pos(), "append to %s inside map iteration without a later sort: map order is randomized per run", path)
			return true
		})
		return true
	})
}

// isAppendCall reports whether call is the builtin append.
func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	return info.ObjectOf(fn) == types.Universe.Lookup("append")
}

// checkMapRangeReturn flags `return append(out, ...)` inside a map
// range when the appended elements mention the iteration variables:
// whichever element the randomized iteration reaches first wins, so the
// returned slice differs run to run. Appending values independent of
// the iteration variables (constant sentinels) is order-insensitive and
// not flagged.
func checkMapRangeReturn(info *types.Info, rng *ast.RangeStmt, ret *ast.ReturnStmt, report func(token.Pos, string, ...any)) {
	iterVars := map[types.Object]bool{}
	for _, e := range [2]ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				iterVars[obj] = true
			}
		}
	}
	if len(iterVars) == 0 {
		return
	}
	for _, res := range ret.Results {
		call, ok := ast.Unparen(res).(*ast.CallExpr)
		if !ok || !isAppendCall(info, call) {
			continue
		}
		for _, arg := range call.Args[1:] {
			mentions := false
			ast.Inspect(arg, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && iterVars[info.ObjectOf(id)] {
					mentions = true
					return false
				}
				return !mentions
			})
			if mentions {
				report(ret.Pos(), "return append(...) inside map iteration appends the iteration variable: which element wins is randomized per run")
				return
			}
		}
	}
}

// isSortCall reports whether fn orders a slice in place: slices.Sort*,
// or one of the sort package's sorts.
func isSortCall(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	}
	return false
}

// sortedAfter reports whether any call after the range statement in the
// enclosing function body is a sort/slices ordering call mentioning the
// (root, path) slice.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt, root types.Object, path string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if !isSortCall(fn) {
			return true
		}
		for _, arg := range call.Args {
			if containsRef(info, arg, root, path) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
