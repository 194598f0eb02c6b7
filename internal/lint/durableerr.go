package lint

import (
	"go/ast"
	"go/types"
)

// durableScoped: the two packages whose writes decide whether a crashed
// run is salvageable — the durable evaluation store's append path and
// the optimizer that feeds it.
var durableScoped = map[string]bool{
	"diversify/internal/optimize":  true,
	"diversify/internal/evalstore": true,
}

// DurableErr is a scoped, stricter errcheck: inside the durability
// packages, the error result of a durability-critical write (os.Rename,
// os.WriteFile, (*os.File).Sync and Write, evalstore.Store.Put and
// Quarantine) must
// reach a variable — not an ExprStmt, not a blank identifier, not a
// defer/go that throws the result away. Closing is deliberately out of
// scope: error-path `f.Close()` after a failed write is idiomatic and
// carries no durability information the preceding Sync didn't.
var DurableErr = &Analyzer{
	Name: "durableerr",
	Doc: "errors from durability-critical writes (rename, sync, store " +
		"appends) must not be discarded",
	Directive: "allow-discard",
	Applies:   func(pkgPath string) bool { return durableScoped[pkgPath] },
	Run:       runDurableErr,
}

func runDurableErr(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, durable := durableCall(pass.Info, call); durable {
						pass.Reportf(call.Pos(), "result of durable write %s is discarded: a silent failure here loses committed state", name)
					}
				}
			case *ast.DeferStmt:
				if name, durable := durableCall(pass.Info, n.Call); durable {
					pass.Reportf(n.Pos(), "deferred durable write %s discards its error: call it on the main path and check the result", name)
				}
			case *ast.GoStmt:
				if name, durable := durableCall(pass.Info, n.Call); durable {
					pass.Reportf(n.Pos(), "durable write %s in a go statement discards its error", name)
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				name, durable := durableCall(pass.Info, call)
				if !durable {
					return true
				}
				// The error is the call's last result, so it lands in the
				// last assignee.
				if last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && last.Name == "_" {
					pass.Reportf(n.Pos(), "error from durable write %s assigned to _: a silent failure here loses committed state", name)
				}
			}
			return true
		})
	}
}

// durableCall reports whether call is a durability-critical write whose
// final result is an error, returning a printable name for diagnostics.
func durableCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || !returnsErrorLast(fn.Signature()) {
		return "", false
	}
	if isPkgFunc(fn, "os", "Rename") || isPkgFunc(fn, "os", "WriteFile") {
		return "os." + fn.Name(), true
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return "", false
	}
	switch {
	case namedFrom(recv.Type(), "os", "File") && (fn.Name() == "Sync" || fn.Name() == "Write"):
		return "(*os.File)." + fn.Name(), true
	case namedFrom(recv.Type(), "diversify/internal/evalstore", "Store") && (fn.Name() == "Put" || fn.Name() == "Quarantine"):
		return "(*evalstore.Store)." + fn.Name(), true
	}
	return "", false
}
