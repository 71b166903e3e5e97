package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// dirSet is the bitset of //rlc: directives attached to one declaration.
type dirSet uint

const (
	// dirNoAlloc marks a function that must not allocate (noalloc analyzer).
	dirNoAlloc dirSet = 1 << iota
	// dirView marks a function whose result slices borrow mmap'd memory
	// (viewescape analyzer); returning a borrow from a view function
	// propagates the borrow to the caller instead of escaping.
	dirView
	// dirViewOwner marks a function blessed to retain views because it
	// manages the mapping's lifetime (snapshot adoption).
	dirViewOwner
	// dirErrCode marks the sentinel-to-wire-code mapping function whose
	// exhaustiveness the errcode analyzer enforces.
	dirErrCode
	// dirErrCodeExempt marks an error sentinel that deliberately carries no
	// wire code.
	dirErrCodeExempt
)

// directiveNames maps the spelling after "//rlc:" to its bit.
var directiveNames = map[string]dirSet{
	"noalloc":        dirNoAlloc,
	"view":           dirView,
	"viewowner":      dirViewOwner,
	"errcode":        dirErrCode,
	"errcode-exempt": dirErrCodeExempt,
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
			if !strings.HasPrefix(c.Text, "//rlc:allocok") {
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
// //rlc:allocok is positional, not declarative, and is handled separately.
func directivesIn(cg *ast.CommentGroup) dirSet {
	if cg == nil {
		return 0
	}
	var set dirSet
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, "//rlc:")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, " ")
		set |= directiveNames[name]
	}
	return set
}
