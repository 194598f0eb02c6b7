// Package lint is the repo's custom static-analysis suite: eight
// analyzers that machine-check the load-bearing guarantees every PR so
// far has only enforced dynamically — common-random-number determinism,
// context propagation, the CRN seeding gate, durable-write error
// handling, the zero-cost-when-disabled telemetry and trace contracts
// (one nil-guard analyzer), and (since step 9) the interprocedural
// versions: transitive determinism reachability, declared lock
// discipline and static hot-path allocation gating.
//
// The suite is stdlib-only (go/parser + go/types, module packages
// checked from source and the standard library from `go list -export`
// compiled export data — no module dependencies, consistent with the
// repo's zero-dep posture). Analyzers are structured as self-contained
// (Name, Doc, Applies, Run) values over a Pass, so they could later be
// ported to golang.org/x/tools/go/analysis if the repo ever takes that
// dependency. Interprocedural analyzers implement RunProgram instead of
// Run and receive a whole-program CHA call graph (see callgraph.go).
//
// Audited exceptions are declared in source with allow directives:
//
//	//diversify:allow-nondet <reason>     suppresses detsource and detreach
//	//diversify:allow-context <reason>    suppresses ctxpropagate
//	//diversify:allow-discard <reason>    suppresses durableerr
//	//diversify:allow-unguarded <reason>  suppresses guardedby
//
// An allow directive suppresses findings on its own line or the line
// directly below it. Marker directives attach guarantees to
// declarations instead of suppressing findings:
//
//	//diversify:det-root <note>          entry point certified deterministic
//	//diversify:det-pure <reason>        audited deterministic leaf
//	//diversify:guardedby <mutex-field>  field requires the named lock
//	//diversify:hotpath <note>           function is escape-baseline gated
//
// Unknown directive kinds, directives without a reason, directives that
// suppress nothing and markers that attach to nothing are themselves
// diagnostics, so neither list can rot.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one repo-specific check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer (Name/Doc/Run over a Pass) so
// a future port is mechanical.
type Analyzer struct {
	Name string
	Doc  string
	// Directive names the allow-directive kind ("allow-nondet", ...)
	// that suppresses this analyzer's findings; "" means findings cannot
	// be suppressed.
	Directive string
	// Applies scopes the analyzer to import paths (nil = every loaded
	// package). Test files never reach an analyzer: the loader only
	// parses non-test GoFiles, which is how "tests are exempt" holds for
	// every rule at once.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
	// RunProgram runs once over the whole loaded program instead of once
	// per package — the interprocedural analyzers (detreach, hotalloc).
	// Exactly one of Run / RunProgram is set.
	RunProgram func(*ProgramPass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the package's import path — fixtures type-check under a
	// virtual path so scoping rules stay testable.
	Path string

	analyzer *Analyzer
	dirs     *directiveIndex
	marks    *markerIndex
	out      *[]Diagnostic
}

// Reportf records a finding unless an allow directive of the analyzer's
// kind covers the position (same line, or the line directly above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.analyzer.Directive != "" && p.dirs.suppress(p.analyzer.Directive, position) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the whole-program view through one
// interprocedural analyzer.
type ProgramPass struct {
	Prog *Program
	// Fset resolves positions for every loaded package (the loader
	// shares one FileSet across the program).
	Fset *token.FileSet

	analyzer *Analyzer
	out      *[]Diagnostic
}

// Reportf records a whole-program finding. Allow-directive filtering
// for program analyzers happens where the program is built (sources
// audited with allow-nondet never become call-graph sources), not here.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportPosf(p.Fset.Position(pos), format, args...)
}

// ReportPosf records a finding at a pre-resolved position — how
// hotalloc reports at compiler-output and baseline-file coordinates
// that have no token.Pos.
func (p *ProgramPass) ReportPosf(pos token.Position, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      pos,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetSource, CtxPropagate, RNGGate, DurableErr, NilGuard, GuardedBy, DetReach, HotAlloc}
}

// Check runs the analyzers over the loaded packages and returns every
// finding (including directive hygiene: unknown kinds, missing reasons,
// unused allows, unbound markers), sorted by position. Per-package
// analyzers run first, then the interprocedural ones over the shared
// call graph; unused-directive hygiene runs last because program
// analyzers consume directives too (allow-nondet at a source site
// covers detsource and detreach with one audit).
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	dirs := map[*Package]*directiveIndex{}
	marks := map[*Package]*markerIndex{}
	needProgram := false
	for _, a := range analyzers {
		if a.RunProgram != nil {
			needProgram = true
		}
	}
	for _, pkg := range pkgs {
		dirs[pkg] = collectDirectives(pkg.Fset, pkg.Files, &out)
		marks[pkg] = collectMarkers(pkg.Fset, pkg.Files, pkg.Info, &out)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			a.Run(&Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Path:     pkg.Path,
				analyzer: a,
				dirs:     dirs[pkg],
				marks:    marks[pkg],
				out:      &out,
			})
		}
	}
	if needProgram && len(pkgs) > 0 {
		prog := buildProgram(pkgs, dirs, marks)
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			a.RunProgram(&ProgramPass{
				Prog:     prog,
				Fset:     pkgs[0].Fset,
				analyzer: a,
				out:      &out,
			})
		}
	}
	for _, pkg := range pkgs {
		dirs[pkg].reportUnused(&out)
	}
	slices.SortFunc(out, func(a, b Diagnostic) int {
		if c := cmp.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Column, b.Pos.Column); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Analyzer, b.Analyzer); c != 0 {
			return c
		}
		return cmp.Compare(a.Message, b.Message)
	})
	return out
}
