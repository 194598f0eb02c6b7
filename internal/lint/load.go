package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Dir is the absolute module root the package was loaded from. The
	// hotalloc analyzer shells out to `go build` from here; it is empty
	// for fixture packages, which disables compiler-backed analyzers.
	Dir string
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	DepOnly    bool
	Standard   bool
	GoFiles    []string
}

// goList runs `go list -deps -export -json` in dir, compiling export
// data for the whole dependency closure of patterns.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,DepOnly,Standard,GoFiles",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data files,
// except for module packages Load has already type-checked from source:
// those resolve to the source-checked *types.Package, so a call into
// another module package names the same *types.Func the call graph has
// a node for.
type exportImporter struct {
	imp     types.Importer
	checked map[string]*types.Package
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := e.checked[path]; ok {
		return pkg, nil
	}
	return e.imp.Import(path)
}

// NewImporter builds a types.Importer backed by `go list -export`
// compiled export data for the dependency closure of patterns, rooted
// at module directory dir. The fixture tests use it directly to
// type-check testdata packages against the real module's dependencies;
// Load uses it for every target package.
func NewImporter(fset *token.FileSet, dir string, patterns ...string) (types.Importer, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return &exportImporter{imp: importer.ForCompiler(fset, "gc", exportLookup(pkgs))}, nil
}

// exportLookup opens the compiled export data `go list -export` listed
// for an import path.
func exportLookup(pkgs []listPkg) importer.Lookup {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q (is it in the loaded pattern closure?)", path)
		}
		return os.Open(f)
	}
}

// ParsePackage parses the named files and type-checks them as a package
// with the given import path. Comments are kept (directives live there).
func ParsePackage(fset *token.FileSet, imp types.Importer, path string, filenames ...string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// Load loads, parses and type-checks the non-test compilation of every
// module package matching patterns (relative to module directory dir).
// Test files are deliberately excluded: every analyzer rule exempts
// tests, and excluding them at load time enforces that uniformly.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listing, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolving module dir: %v", err)
	}
	fset := token.NewFileSet()
	imp := &exportImporter{
		imp:     importer.ForCompiler(fset, "gc", exportLookup(listing)),
		checked: map[string]*types.Package{},
	}
	// `go list -deps` lists every package after its dependencies, so each
	// module package is source-checked before anything imports it. Module
	// dependencies outside patterns are checked too (but not returned):
	// mixing them in from export data would give their imports a second,
	// incompatible copy of a source-checked package.
	var out []*Package
	for _, p := range listing {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		names := make([]string, len(p.GoFiles))
		for i, g := range p.GoFiles {
			names[i] = filepath.Join(p.Dir, g)
		}
		pkg, err := ParsePackage(fset, imp, p.ImportPath, names...)
		if err != nil {
			return nil, err
		}
		imp.checked[p.ImportPath] = pkg.Pkg
		if p.DepOnly {
			continue
		}
		pkg.Dir = absDir
		out = append(out, pkg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no packages match %v", patterns)
	}
	return out, nil
}
