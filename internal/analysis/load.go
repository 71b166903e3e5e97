package analysis

import (
	"bytes"
	"encoding/json"
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
	"runtime"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load enumerates patterns (e.g. "./...") with the go command from dir and
// type-checks every reachable package from source, dependencies first, into
// one Program. Cgo is disabled for the enumeration so every package resolves
// to pure-Go files the type checker can consume; the module has no cgo, so
// analysis results are unaffected.
//
// Standard-library dependencies are type-checked from GOROOT source purely
// to resolve imports; only pattern-matched packages become analysis targets.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var metas []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		if lp.Error != nil && !lp.DepOnly {
			return nil, fmt.Errorf("load %s: %s", lp.ImportPath, lp.Error.Err)
		}
		metas = append(metas, &lp)
	}

	prog := &Program{
		Fset:     token.NewFileSet(),
		Packages: make(map[string]*Package),
	}
	// -deps emits dependencies before dependents, so one forward pass
	// type-checks everything with all imports already resolved.
	for _, lp := range metas {
		pkg, err := typecheckListed(prog, lp)
		if err != nil {
			return nil, err
		}
		prog.Packages[lp.ImportPath] = pkg
		if !lp.DepOnly {
			pkg.Target = true
			prog.Targets = append(prog.Targets, pkg)
		}
	}
	return prog, nil
}

// typecheckListed parses and type-checks one `go list` entry against the
// packages already resolved into prog.
func typecheckListed(prog *Program, lp *listedPackage) (*Package, error) {
	pkg := &Package{
		Path:     lp.ImportPath,
		Name:     lp.Name,
		Standard: lp.Standard,
	}
	if lp.ImportPath == "unsafe" {
		pkg.Types = types.Unsafe
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", filepath.Join(lp.Dir, name), err)
		}
		files = append(files, f)
	}
	pkg.Files = files
	imp := func(path string) *types.Package {
		if mapped, ok := lp.ImportMap[path]; ok {
			path = mapped
		}
		if dep := prog.Packages[path]; dep != nil {
			return dep.Types
		}
		return nil
	}
	tpkg, info, errs := typecheck(prog.Fset, lp.ImportPath, files, importerFunc(imp))
	pkg.Types, pkg.Info, pkg.TypeErrors = tpkg, info, errs
	// Dependency-only packages (notably GOROOT internals) may carry benign
	// source-typecheck noise; a package we are asked to analyze must be
	// clean or the findings would be meaningless.
	if !lp.DepOnly && len(errs) > 0 {
		return nil, fmt.Errorf("typecheck %s: %v (and %d more)", lp.ImportPath, errs[0], len(errs)-1)
	}
	return pkg, nil
}

// importerFunc adapts a lookup function to types.Importer.
type importerFunc func(path string) *types.Package

func (f importerFunc) Import(path string) (*types.Package, error) {
	if p := f(path); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("package %q not loaded", path)
}

// typecheck runs go/types over files with full fact maps, collecting rather
// than aborting on errors.
func typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, []error) {
	var errs []error
	conf := types.Config{
		Importer:                 imp,
		FakeImportC:              true,
		Error:                    func(err error) { errs = append(errs, err) },
		Sizes:                    types.SizesFor("gc", runtime.GOARCH),
		DisableUnusedImportCheck: true,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	return tpkg, info, errs
}

// sourceImporter returns a fallback importer that compiles stdlib packages
// from GOROOT source on demand. Fixture loading uses it for the few standard
// imports test fixtures need; Load resolves everything through go list
// instead.
func sourceImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}
