package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant checker. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the suite could be rebased onto the real
// framework mechanically if the module ever grows the dependency.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is the one-paragraph description `rlcvet -list` prints.
	Doc string
	// Run analyzes one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package under analysis.
type Pass struct {
	Analyzer *Analyzer
	// Prog is the whole loaded program: every package with source in the
	// analysis universe, for cross-package lookups (callee bodies,
	// annotations, sentinel scopes).
	Prog *Program
	// Pkg is the package being analyzed.
	Pkg *Package
	// Fset positions every node of every package in Prog.
	Fset *token.FileSet
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position, the analyzer that produced it, and
// the human-readable message.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path (fixture packages use their testdata-relative
	// path).
	Path string
	// Name is the package name.
	Name string
	// Files are the parsed source files (comments retained — the directive
	// parser needs them).
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the full go/types fact maps for Files.
	Info *types.Info
	// Standard marks a GOROOT package (type-checked for import resolution
	// only, never analyzed).
	Standard bool
	// Target marks a package matched by the load patterns (analyzed, not
	// just loaded as a dependency).
	Target bool
	// TypeErrors collects type-checker complaints; analyzers still run on
	// packages that loaded with errors only when the driver opts in.
	TypeErrors []error
}

// Program is the closed analysis universe: every package reachable from the
// load patterns, type-checked in dependency order, plus the annotation index
// built over all packages that have source.
type Program struct {
	Fset     *token.FileSet
	Packages map[string]*Package // keyed by Package.Path
	// Targets are the pattern-matched packages, in load order.
	Targets []*Package

	directives *directiveIndex
}

// SourcePackage returns the loaded package with source for path, nil if the
// path is unknown or has no source in the universe.
func (prog *Program) SourcePackage(path string) *Package {
	p := prog.Packages[path]
	if p == nil || len(p.Files) == 0 {
		return nil
	}
	return p
}

// PackageOf returns the loaded package that declared obj, nil for builtins
// and objects whose package has no source in the universe.
func (prog *Program) PackageOf(obj types.Object) *Package {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	return prog.SourcePackage(obj.Pkg().Path())
}

// FuncDeclOf returns the source declaration of fn, nil when the body is not
// part of the universe (a package loaded without source, an interface
// method).
func (prog *Program) FuncDeclOf(fn *types.Func) *ast.FuncDecl {
	pkg := prog.PackageOf(fn)
	if pkg == nil {
		return nil
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if pkg.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// Run checks every target package's //rlc: directives, executes analyzers
// over it, and returns the findings sorted by position.
func (prog *Program) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	// Load reads no _test.go file: the suite polices production code only.
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range prog.Targets {
		checkDirectives(pkg, report)
	}
	for _, a := range analyzers {
		for _, pkg := range prog.Targets {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, Fset: prog.Fset, Report: report}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{NoAlloc, ErrCode}
}

// ByName resolves one analyzer, nil if unknown.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
