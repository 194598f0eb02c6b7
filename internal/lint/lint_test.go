package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureEnv shares one FileSet + export-data importer across every
// fixture test: building the importer shells out to `go list -deps
// -export`, which is the expensive part.
var fixtureEnv struct {
	once sync.Once
	fset *token.FileSet
	imp  types.Importer
	err  error
}

func fixtureImporter(t *testing.T) (*token.FileSet, types.Importer) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	fixtureEnv.once.Do(func() {
		fixtureEnv.fset = token.NewFileSet()
		// The extra stdlib patterns pull export data for packages the
		// fixtures import but the module itself (correctly) does not.
		fixtureEnv.imp, fixtureEnv.err = NewImporter(fixtureEnv.fset, "../..",
			"./...", "math/rand", "math/rand/v2", "crypto/rand")
	})
	if fixtureEnv.err != nil {
		t.Fatalf("building fixture importer: %v", fixtureEnv.err)
	}
	return fixtureEnv.fset, fixtureEnv.imp
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// runFixture type-checks testdata files as one package under a virtual
// import path (so Applies scoping is exercised), runs the given
// analyzers and compares diagnostics against `// want "substr"`
// comments: every diagnostic must land on a want line and contain its
// substring, and every want line must produce a diagnostic.
func runFixture(t *testing.T, pkgPath string, analyzers []*Analyzer, files ...string) []Diagnostic {
	t.Helper()
	fset, imp := fixtureImporter(t)
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = filepath.Join("testdata", f)
	}
	pkg, err := ParsePackage(fset, imp, pkgPath, names...)
	if err != nil {
		t.Fatal(err)
	}
	diags := Check([]*Package{pkg}, analyzers)

	wants := map[string]string{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants[fmt.Sprintf("%s:%d", name, i+1)] = m[1]
			}
		}
	}
	matched := map[string]bool{}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		want, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !strings.Contains(d.Message, want) {
			t.Errorf("diagnostic at %s = %q, want substring %q", key, d.Message, want)
		}
		matched[key] = true
	}
	for key, want := range wants {
		if !matched[key] {
			t.Errorf("missing diagnostic at %s (want substring %q)", key, want)
		}
	}
	return diags
}

func TestDetSourceFixture(t *testing.T) {
	runFixture(t, "diversify/internal/malware", []*Analyzer{DetSource}, "detsource.go")
}

func TestDetSourceOutOfScope(t *testing.T) {
	runFixture(t, "diversify/internal/topology", []*Analyzer{DetSource}, "detsource_outofscope.go")
}

func TestCtxPropagateFixture(t *testing.T) {
	runFixture(t, "diversify/internal/optimize", []*Analyzer{CtxPropagate}, "ctxpropagate.go")
}

func TestRNGGateFixture(t *testing.T) {
	runFixture(t, "diversify/internal/des", []*Analyzer{RNGGate}, "rnggate.go")
}

func TestRNGGateInsideRNG(t *testing.T) {
	runFixture(t, "diversify/internal/rng", []*Analyzer{RNGGate}, "rnggate_rng.go")
}

func TestDurableErrFixture(t *testing.T) {
	runFixture(t, "diversify/internal/optimize", []*Analyzer{DurableErr}, "durableerr.go")
}

func TestTelemetryGuardFixture(t *testing.T) {
	runFixture(t, "diversify/internal/scada", []*Analyzer{TelemetryGuard}, "telemetryguard.go")
}

func TestTraceGuardFixture(t *testing.T) {
	runFixture(t, "diversify/internal/scada", []*Analyzer{TraceGuard}, "traceguard.go")
}

func TestTelemetryGuardCmdExempt(t *testing.T) {
	runFixture(t, "diversify/cmd/optimize", []*Analyzer{TelemetryGuard}, "telemetryguard_cmd.go")
}

func TestDetReachFixture(t *testing.T) {
	runFixture(t, "diversify/internal/topology", []*Analyzer{DetReach}, "detreach.go")
}

func TestGuardedByFixture(t *testing.T) {
	runFixture(t, "diversify/internal/telemetry", []*Analyzer{GuardedBy}, "guardedby.go")
}

// TestDirectiveHygiene asserts the three directive findings explicitly:
// want comments can't ride on directive lines because the parser would
// swallow them as the reason text.
func TestDirectiveHygiene(t *testing.T) {
	fset, imp := fixtureImporter(t)
	pkg, err := ParsePackage(fset, imp, "diversify/internal/indicators",
		filepath.Join("testdata", "directive.go"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Check([]*Package{pkg}, []*Analyzer{DetSource})
	var got []string
	for _, d := range diags {
		if d.Analyzer != "directive" {
			t.Errorf("unexpected non-directive diagnostic: %s", d)
			continue
		}
		got = append(got, d.Message)
	}
	want := []string{
		"unknown directive //diversify:allow-teleport",
		"//diversify:allow-nondet needs a reason",
		"unused //diversify:allow-discard",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d directive diagnostics %q, want %d", len(got), got, len(want))
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if strings.Contains(g, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic contains %q (got %q)", w, got)
		}
	}
}

// TestRepoIsClean is the meta-test: the full suite over the real module
// must be silent, and the audited nondeterminism allowlist must stay at
// most three sites.
func TestRepoIsClean(t *testing.T) {
	pkgs := repoPackages(t)
	if diags := Check(pkgs, Analyzers()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("repo not lint-clean: %s", d)
		}
	}
	nondet := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//diversify:allow-nondet") {
						nondet++
					}
				}
			}
		}
	}
	if nondet > 3 {
		t.Errorf("%d //diversify:allow-nondet directives in the repo, budget is 3", nondet)
	}
}
