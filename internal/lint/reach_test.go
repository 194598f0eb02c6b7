package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"testing"
)

// repoEnv shares one load of the whole module between the tests that
// walk it: loading shells out to `go list -deps -export` and type-checks
// every package, which is the expensive part.
var repoEnv struct {
	once sync.Once
	pkgs []*Package
	err  error
}

func repoPackages(t *testing.T) []*Package {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	repoEnv.once.Do(func() { repoEnv.pkgs, repoEnv.err = Load("../..", "./...") })
	if repoEnv.err != nil {
		t.Fatal(repoEnv.err)
	}
	return repoEnv.pkgs
}

// stdlibMethods are the method names of the standard-library interfaces
// the module's types satisfy (error, fmt.Stringer, flag.Value,
// sort.Interface, heap.Interface, io.Writer, http.Handler,
// json.Marshaler and errors' Unwrap/Is). The standard library calls them
// through interfaces the call graph does not see, so they are roots.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Set": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "Write": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Unwrap": true, "Is": true,
}

// unreachableAllow lists the module functions outside internal/lint that
// no root reaches, each with the reason it stays. Removing an entry (by
// deleting the function or calling it) is always allowed; the test
// fails on an entry that has become reachable, so the list only shrinks.
var unreachableAllow = map[string]string{
	// Test oracle: an independent computation tests check the code
	// against.
	"internal/indicators.ValidateSeries":         "series invariants the campaign tests assert",
	"internal/markov.(*Chain).Transient":         "uniformization cross-check of SteadyState",
	"internal/topology.(*Topology).Reachable":    "path existence the scope and sealed-graph tests assert",
	"internal/topology.(*Topology).ShortestPath": "BFS oracle for the sealed neighbour layout",

	// Kept for an open ROADMAP item.
	"internal/markov.(*Chain).AbsorptionProbabilities": "item 9: the reduced-chain check of the splitting estimate",
	"internal/rng.(*Rand).Geometric":                   "item 8: geometric beacon and blocked-attempt gaps",
	"internal/stats.(Interval).Contains":               "item 5: scores that carry their uncertainty",
	"internal/stats.MeanCI":                            "item 5: scores that carry their uncertainty",
	"internal/stats.StudentTCDF":                       "item 5: scores that carry their uncertainty",
	"internal/stats.StudentTQuantile":                  "item 5: scores that carry their uncertainty",

	// Interface method: completes an interface no caller dispatches this
	// method through.
	"internal/modbus.(*DiversifiedDialect).Name":  "modbus.Dialect",
	"internal/modbus.(StandardDialect).Name":      "modbus.Dialect",
	"internal/rng.(Deterministic).Mean":           "rng.Dist",
	"internal/rng.(Erlang).Mean":                  "rng.Dist",
	"internal/rng.(Exponential).Mean":             "rng.Dist",
	"internal/rng.(LogNormal).Mean":               "rng.Dist",
	"internal/rng.(Normal).Mean":                  "rng.Dist",
	"internal/rng.(Scaled).Mean":                  "rng.Dist",
	"internal/rng.(Triangular).Mean":              "rng.Dist",
	"internal/rng.(Uniform).Mean":                 "rng.Dist",
	"internal/rng.(Weibull).Mean":                 "rng.Dist",
	"internal/telemetry.(EvaluationBatch).Kind":   "telemetry.Event",
	"internal/telemetry.(ExplanationReady).Kind":  "telemetry.Event",
	"internal/telemetry.(RoundCompleted).Kind":    "telemetry.Event",
	"internal/telemetry.(RunFinished).Kind":       "telemetry.Event",
	"internal/telemetry.(RunStarted).Kind":        "telemetry.Event",
	"internal/telemetry.(StoreWarmStart).Kind":    "telemetry.Event",
	"internal/telemetry.(WorkerQuarantined).Kind": "telemetry.Event",

	// Test accessor: exposes state, or a protocol path, only tests drive.
	"internal/physics.(*CentrifugeCascade).Healthy": "physics plant health, read by the scada and physics tests",
	"internal/physics.(*CoolingPlant).Healthy":      "physics plant health, read by the physics tests",
	"internal/modbus.(*Client).ReadCoils":           "client side of a server function code the modbus tests drive",
	"internal/modbus.(*Client).ReadDiscreteInputs":  "client side of a server function code the modbus tests drive",
	"internal/modbus.(*Client).ReadHolding":         "client side of a server function code the modbus tests drive",
	"internal/modbus.(*Client).ReadInput":           "client side of a server function code the modbus tests drive",
	"internal/modbus.(*Client).WriteCoil":           "client side of a server function code the modbus tests drive",
	"internal/modbus.(*Client).WriteRegisters":      "client side of a server function code the modbus tests drive",
	"internal/modbus.(*Server).Close":               "listener shutdown for the modbus and integration tests",
	"internal/modbus.(*Server).Serve":               "listener loop for the modbus and integration tests",
	"internal/modbus.BytesToCoils":                  "coil decoding the modbus tests check",
	"internal/modbus.WriteMultipleRequest":          "request encoding the modbus tests check",
	"internal/modbus.(*MemoryModel).Coil":           "register-map read the modbus tests assert",
	"internal/modbus.(*MemoryModel).SetDiscrete":    "register-map setup for the modbus tests",
	"internal/des.(*Sim).FiredEvents":               "event count the des and malware loop tests assert",
	"internal/evalstore.(*Store).Recovered":         "truncated-tail size the recovery tests assert",
	"internal/telemetry.(*Recorder).Count":          "event count by kind",
	"internal/telemetry.(*Recorder).Events":         "recorded event stream",
	"internal/topology.(*Topology).Node":            "checked node lookup",
	"internal/trace.(*Tracer).Records":              "captured records before Finish",

	// Called only by perfbench/, a separate module the load does not see.
	"internal/malware.(*Campaign).Reset": "the malware.rep probe's reused campaign",
	"internal/telemetry.(*Counter).Add":  "the simulated-replication counter sink",
}

// reachKey names fn by its package path inside the module plus its
// display name: "internal/core.(*Study).Run".
func reachKey(fn *types.Func) string {
	name := funcDisplayName(fn)
	path := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), "diversify"), "/")
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	if path == "" {
		path = "diversify"
	}
	return path + "." + name
}

// reachRoots returns the functions the module can run from outside the
// call graph: every main and init, the root package's exports (its
// functions and the exported methods of every type it names, aliases
// included), functions referenced from package-level var initializers,
// and methods named like a standard-library interface method.
func reachRoots(prog *Program) []*types.Func {
	var roots []*types.Func
	for fn, fi := range prog.Funcs {
		name := fn.Name()
		recv := fn.Signature().Recv()
		switch {
		case recv == nil && (name == "init" || name == "main" && fi.Pkg.Pkg.Name() == "main"):
		case recv != nil && stdlibMethods[name]:
		default:
			continue
		}
		roots = append(roots, fn)
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Path == "diversify" {
			scope := pkg.Pkg.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if !obj.Exported() {
					continue
				}
				switch obj := obj.(type) {
				case *types.Func:
					roots = append(roots, obj)
				case *types.TypeName:
					ms := types.NewMethodSet(types.NewPointer(obj.Type()))
					for i := 0; i < ms.Len(); i++ {
						if m, ok := ms.At(i).Obj().(*types.Func); ok && m.Exported() {
							roots = append(roots, m.Origin())
						}
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				ast.Inspect(gd, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
							roots = append(roots, fn.Origin())
						}
					}
					return true
				})
			}
		}
	}
	return roots
}

// unreachable walks the call graph from reachRoots and returns the keys
// of the declared functions outside internal/lint it never reaches,
// sorted.
func unreachable(prog *Program) []string {
	seen := map[*types.Func]bool{}
	stack := reachRoots(prog)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		if fi, ok := prog.Funcs[fn]; ok {
			for _, e := range fi.Calls {
				stack = append(stack, e.Callee)
			}
		}
	}
	var out []string
	for fn, fi := range prog.Funcs {
		if !seen[fn] && fi.Pkg.Path != "diversify/internal/lint" {
			out = append(out, reachKey(fn))
		}
	}
	slices.Sort(out)
	return out
}

// TestNoUnreachableCode is the dead-code guard: every function the
// module declares outside internal/lint is reachable from a root, or is
// allowlisted with a reason.
func TestNoUnreachableCode(t *testing.T) {
	got := unreachable(BuildProgram(repoPackages(t)))
	for _, k := range got {
		if _, ok := unreachableAllow[k]; !ok {
			t.Errorf("unreachable function %s: delete it, call it, or allowlist it with a reason", k)
		}
	}
	for k := range unreachableAllow {
		if !slices.Contains(got, k) {
			t.Errorf("allowlisted %s is reachable (or gone): remove its entry", k)
		}
	}
}
