package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// dirSet is the bitset of //rlc: directives attached to one declaration.
type dirSet uint

const (
	// dirNoAlloc marks a function that must not allocate (noalloc analyzer).
	dirNoAlloc dirSet = 1 << iota
	// dirErrCode marks the sentinel-to-wire-code mapping function whose
	// exhaustiveness the errcode analyzer enforces.
	dirErrCode
	// dirErrCodeExempt marks an error sentinel that deliberately carries no
	// wire code.
	dirErrCodeExempt
)

// directiveNames maps the spelling after "//rlc:" to its bit. allocok is
// positional, not declarative: it waives a line, so it carries no bit.
var directiveNames = map[string]dirSet{
	"noalloc":        dirNoAlloc,
	"errcode":        dirErrCode,
	"errcode-exempt": dirErrCodeExempt,
	"allocok":        0,
}

// directiveIndex resolves declarations to their directives across the whole
// program, plus the per-file //rlc:allocok waiver lines.
type directiveIndex struct {
	objs map[types.Object]dirSet
	// allocok maps filename -> set of waived lines. A waiver comment on
	// line N silences noalloc findings on lines N and N+1, so it works both
	// trailing a statement and on its own line above one.
	allocok map[string]map[int]bool
}

// Directives builds (once) and returns the program-wide directive index.
func (prog *Program) Directives() *directiveIndex {
	if prog.directives != nil {
		return prog.directives
	}
	idx := &directiveIndex{
		objs:    make(map[types.Object]dirSet),
		allocok: make(map[string]map[int]bool),
	}
	for _, pkg := range prog.Packages {
		if pkg.Standard || len(pkg.Files) == 0 {
			continue
		}
		for _, f := range pkg.Files {
			idx.collectFile(prog, pkg, f)
		}
	}
	prog.directives = idx
	return idx
}

// Of returns the directives attached to obj's declaration.
func (idx *directiveIndex) Of(obj types.Object) dirSet {
	if obj == nil {
		return 0
	}
	return idx.objs[obj]
}

// AllocOK reports whether a noalloc finding at file:line is waived.
func (idx *directiveIndex) AllocOK(file string, line int) bool {
	return idx.allocok[file][line]
}

func (idx *directiveIndex) collectFile(prog *Program, pkg *Package, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if name, _ := directiveName(c); name != "allocok" {
				continue
			}
			pos := prog.Fset.Position(c.Pos())
			lines := idx.allocok[pos.Filename]
			if lines == nil {
				lines = make(map[int]bool)
				idx.allocok[pos.Filename] = lines
			}
			lines[pos.Line] = true
			lines[pos.Line+1] = true
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if set := directivesIn(d.Doc); set != 0 {
				if obj := pkg.Info.Defs[d.Name]; obj != nil {
					idx.objs[obj] |= set
				}
			}
		case *ast.GenDecl:
			declSet := directivesIn(d.Doc)
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				set := declSet | directivesIn(vs.Doc) | directivesIn(vs.Comment)
				if set == 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						idx.objs[obj] |= set
					}
				}
			}
		}
	}
}

// directivesIn parses every //rlc:<name> line of a comment group.
func directivesIn(cg *ast.CommentGroup) dirSet {
	if cg == nil {
		return 0
	}
	var set dirSet
	for _, c := range cg.List {
		if name, ok := directiveName(c); ok {
			set |= directiveNames[name]
		}
	}
	return set
}

// directiveName returns the name of an //rlc:<name> comment.
func directiveName(c *ast.Comment) (string, bool) {
	rest, ok := strings.CutPrefix(c.Text, "//rlc:")
	name, _, _ := strings.Cut(rest, " ")
	return name, ok
}

// checkDirectives reports every //rlc: comment in pkg that names no
// directive: a misspelled //rlc:noaloc would otherwise switch its check off
// without a word. It runs with every analyzer selection.
func checkDirectives(pkg *Package, report func(Diagnostic)) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if name, ok := directiveName(c); ok {
					if _, known := directiveNames[name]; !known {
						report(Diagnostic{Pos: c.Pos(), Analyzer: "directives",
							Message: fmt.Sprintf("unknown directive //rlc:%s (known: %s)", name,
								strings.Join(slices.Sorted(maps.Keys(directiveNames)), ", "))})
					}
				}
			}
		}
	}
}
