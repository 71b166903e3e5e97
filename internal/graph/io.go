package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"iter"
	"math"
	"os"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The text format is one edge per line: "src dst label", whitespace
// separated. Lines starting with '#' and blank lines are ignored. Tokens may
// be arbitrary strings; numeric tokens are used as ids directly when every
// token in the file is numeric, otherwise tokens are interned in first-seen
// order and the display names recorded on the graph. A line may hold at
// most maxLine bytes before its newline.
//
// Whitespace is what strings.Fields splits on (unicode.IsSpace), a token is
// numeric when strconv.Atoi accepts it, and a line over the limit fails as
// bufio.Scanner's would.

// maxLine is the longest line Read accepts: with its newline it fills a
// 1 MiB scanner buffer.
const maxLine = 1<<20 - 1

// Read parses the text edge-list format from r. It reads r whole, then
// passes over its lines twice: once to check each line's field count and
// whether every token is numeric, and once to add the edges. A numeric file
// makes no string at all; a named one makes one per distinct name.
func Read(r io.Reader) (*Graph, error) {
	data, readErr := io.ReadAll(r)
	tok := func(f field) []byte { return data[f.lo:f.hi] }

	numeric := true
	for ln, err := range lines(data) {
		if err != nil {
			return nil, err
		}
		if ln.n != 3 {
			return nil, fmt.Errorf("graph: line %d: want 3 fields \"src dst label\", got %d", ln.no, ln.n)
		}
		for i := 0; numeric && i < len(ln.fields); i++ {
			_, err := strconv.Atoi(string(tok(ln.fields[i])))
			numeric = err == nil
		}
	}
	if readErr != nil {
		return nil, fmt.Errorf("graph: read: %w", readErr)
	}

	// Every line passed the checks above, so lines yields no error now.
	b := NewBuilder(0, 0)
	if numeric {
		for ln := range lines(data) {
			f := ln.fields
			src, _ := strconv.Atoi(string(tok(f[0])))
			dst, _ := strconv.Atoi(string(tok(f[1])))
			lbl, _ := strconv.Atoi(string(tok(f[2])))
			if src < 0 || dst < 0 || lbl < 0 {
				return nil, fmt.Errorf("graph: negative id in edge %s %s %s", tok(f[0]), tok(f[1]), tok(f[2]))
			}
			if int64(src) > math.MaxInt32 || int64(dst) > math.MaxInt32 || int64(lbl) > math.MaxInt32 {
				return nil, fmt.Errorf("graph: id beyond the dense int32 space in edge %s %s %s", tok(f[0]), tok(f[1]), tok(f[2]))
			}
			b.AddEdge(Vertex(src), Label(lbl), Vertex(dst))
		}
		return b.Build(), nil
	}

	var vertices, labels nameTable
	for ln := range lines(data) {
		f := ln.fields
		b.AddEdge(vertices.id(tok(f[0])), Label(labels.id(tok(f[2]))), vertices.id(tok(f[1])))
	}
	b.SetVertexNames(vertices.names)
	b.SetLabelNames(labels.names)
	return b.Build(), nil
}

// field is a token of Read's input: data[lo:hi].
type field struct{ lo, hi int }

// line is a line of Read's input that is neither blank nor a comment.
type line struct {
	no     int      // 1-based line number
	n      int      // number of fields
	fields [3]field // the first three fields
}

// lines yields the lines of data that are neither blank nor a comment, in
// order, and stops at the first line longer than maxLine with
// bufio.Scanner's error.
func lines(data []byte) iter.Seq2[line, error] {
	return func(yield func(line, error) bool) {
		for pos, no := 0, 1; pos < len(data); no++ {
			end := len(data)
			if i := bytes.IndexByte(data[pos:], '\n'); i >= 0 {
				end = pos + i
			}
			if end-pos > maxLine {
				yield(line{}, fmt.Errorf("graph: read: %w", bufio.ErrTooLong))
				return
			}
			ln := line{no: no}
			ln.n = splitFields(data, pos, end, &ln.fields)
			pos = end + 1
			if ln.n == 0 || data[ln.fields[0].lo] == '#' {
				continue
			}
			if !yield(ln, nil) {
				return
			}
		}
	}
}

// nameTable gives a named file's tokens ids in first-seen order.
type nameTable struct {
	ids   map[string]int32
	names []string
}

// id returns tok's id, giving it the next one on first sight.
func (t *nameTable) id(tok []byte) int32 {
	if id, ok := t.ids[string(tok)]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id, name := int32(len(t.names)), string(tok)
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits data[lo:hi] around runs of white space, as
// strings.Fields does, records the first three fields in out and returns
// how many there are.
func splitFields(data []byte, lo, hi int, out *[3]field) int {
	n, start := 0, -1
	for i := lo; i < hi; {
		c, size := data[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(data[i:hi])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space && start < 0:
			start = i
		case space && start >= 0:
			if n < len(out) {
				out[n] = field{start, i}
			}
			n, start = n+1, -1
		}
		i += size
	}
	if start >= 0 {
		if n < len(out) {
			out[n] = field{start, hi}
		}
		n++
	}
	return n
}

// Write renders g in the text edge-list format, using display names when the
// graph has them.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d vertices, %d edges, %d labels\n", g.NumVertices(), g.NumEdges(), g.NumLabels())
	named := g.vertexNames != nil || g.labelNames != nil
	for v := Vertex(0); int(v) < g.NumVertices(); v++ {
		dsts, lbls := g.OutEdges(v)
		for i := range dsts {
			if named {
				fmt.Fprintf(bw, "%s %s %s\n", g.VertexName(v), g.VertexName(dsts[i]), g.LabelName(lbls[i]))
			} else {
				fmt.Fprintf(bw, "%d %d %d\n", v, dsts[i], lbls[i])
			}
		}
	}
	return bw.Flush()
}

// LoadFile reads a graph from the text file at path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// SaveFile writes a graph to the text file at path.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
