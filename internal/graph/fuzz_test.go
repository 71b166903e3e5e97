package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzRead hardens the graph loader: on arbitrary text Read fails exactly as
// readReference does (same error text) or returns the same graph — edges,
// vertex and label counts, names — and an accepted graph survives a
// write/read round trip.
func FuzzRead(f *testing.F) {
	f.Add("0 1 0\n1 2 1\n")
	f.Add("# comment\nA B knows\nB C knows\n")
	f.Add("")
	f.Add("1 2\n")
	f.Add("x y z w\n")
	f.Add("-1 0 0\n")
	f.Add("999999 0 0\n")
	// White space strings.Fields splits on beyond ' ', '\t' and '\n'.
	f.Add("0\v1\v0\n")
	f.Add("0\f1 0\f\n")
	f.Add("0\u00851\u00850\n\u0085# x\n")
	f.Add("a b c\n")
	// Tokens strconv.Atoi accepts or refuses.
	f.Add("+1 -0 007\n")
	f.Add("9223372036854775807 0 0\n")
	f.Add("9223372036854775808 0 0\n")
	f.Add("-9223372036854775808 0 0\n")
	f.Add("-9223372036854775809 0 0\n")
	f.Add("2147483648 0 0\n")
	f.Add("+ - 0\n")
	// Line structure.
	f.Add("0 1 0\r\n1 2 1\r\n")
	f.Add("0 1 0\n1 2 1")
	f.Add("  # x\n0 1 0\n")
	f.Add("\n\n   \n0 1 0\n\t#\n")
	f.Add("0 1 0\nA 1 l\n2 B 0\n")
	f.Add("-1 0 0\n0 1\n")
	f.Add("# c\n-1 0 0\n\n5 5 5\nA 0 x\n0 A 5\n")
	f.Add("-0 2147483648 0\n")
	f.Add("9 9 9\na b c\n")
	// Ids past the fuzzer's dense bound in files that build no dense graph.
	f.Add("2000000000 0 0\na b c\n")
	f.Add("2000000000 0 0\n-1 0 0\n")
	f.Add("0 2000000000 0\n1 2\n")
	f.Add("0 1 0\n\xff 1 0\n\xc2 \xa0\n")
	f.Fuzz(func(t *testing.T, input string) {
		if denseBeyond(input, 1<<20) {
			t.Skip("a vertex id past 2^20 makes a graph of gigabytes")
		}
		g, err := Read(strings.NewReader(input))
		want, wantErr := readReference(strings.NewReader(input))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Read error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("Read and reference disagree:\n got %+v\nwant %+v", g, want)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("accepted graph fails to write: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted input failed: %v", err)
		}
		if back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edge count %d -> %d", g.NumEdges(), back.NumEdges())
		}
	})
}

// denseBeyond reports whether input loads as a numeric graph with an id of
// at least max: a graph that size takes the fuzzer's memory, not its
// coverage. A named file, or a numeric one that fails before its graph is
// built, stays in whatever its ids.
func denseBeyond(input string, max int) bool {
	big := false
	for line := range strings.Lines(input) {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 3 {
			return false
		}
		for _, tok := range fields {
			id, err := strconv.Atoi(tok)
			if err != nil || id < 0 || id > math.MaxInt32 {
				return false
			}
			big = big || id >= max
		}
	}
	return big
}

// TestReadLineLimit holds Read to bufio.Scanner's 1 MiB buffer: a line of
// 1 MiB − 1 bytes before its newline loads, one byte more fails as the
// reference does, whether the line is the last or not.
func TestReadLineLimit(t *testing.T) {
	pad := func(n int) string { return "0 1 0" + strings.Repeat(" ", n-len("0 1 0")) }
	for _, in := range []string{
		pad(maxLine) + "\n",
		pad(maxLine),
		pad(maxLine+1) + "\n",
		pad(maxLine + 1),
		"x\n" + pad(maxLine+1) + "\n",
		"0 1\n" + pad(maxLine+1) + "\n",
	} {
		_, err := Read(strings.NewReader(in))
		_, wantErr := readReference(strings.NewReader(in))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%d-byte input: Read error %v, reference %v", len(in), err, wantErr)
		}
	}
}

// TestReadErrorAfterData holds Read to the reference when the reader fails
// part way: the lines before the failure are parsed first (the last one
// even without its newline), so a malformed one wins over the read error.
func TestReadErrorAfterData(t *testing.T) {
	for _, in := range []string{"", "0 1 0\n", "0 1 0\n1 2", "0 1\n2 3 0\n", "-1 0 0\n"} {
		fail := func() io.Reader {
			return io.MultiReader(strings.NewReader(in), iotest.ErrReader(errors.New("disk gone")))
		}
		_, err := Read(fail())
		_, wantErr := readReference(fail())
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%q then a read error: Read error %v, reference %v", in, err, wantErr)
		}
	}
}

// readReference is the line-scanner loader Read replaced, kept as the
// oracle of FuzzRead.
func readReference(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	type rawEdge struct{ src, dst, lbl string }
	var raw []rawEdge
	numeric := true
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 3 fields \"src dst label\", got %d", lineNo, len(fields))
		}
		for _, f := range fields {
			if _, err := strconv.Atoi(f); err != nil {
				numeric = false
			}
		}
		raw = append(raw, rawEdge{fields[0], fields[1], fields[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}

	b := NewBuilder(0, 0)
	if numeric {
		for _, e := range raw {
			src, _ := strconv.Atoi(e.src)
			dst, _ := strconv.Atoi(e.dst)
			lbl, _ := strconv.Atoi(e.lbl)
			if src < 0 || dst < 0 || lbl < 0 {
				return nil, fmt.Errorf("graph: negative id in edge %s %s %s", e.src, e.dst, e.lbl)
			}
			if int64(src) > math.MaxInt32 || int64(dst) > math.MaxInt32 || int64(lbl) > math.MaxInt32 {
				return nil, fmt.Errorf("graph: id beyond the dense int32 space in edge %s %s %s", e.src, e.dst, e.lbl)
			}
			b.AddEdge(Vertex(src), Label(lbl), Vertex(dst))
		}
		return b.Build(), nil
	}

	vids := make(map[string]Vertex)
	lids := make(map[string]Label)
	var vnames, lnames []string
	vertex := func(tok string) Vertex {
		if id, ok := vids[tok]; ok {
			return id
		}
		id := Vertex(len(vnames))
		vids[tok] = id
		vnames = append(vnames, tok)
		return id
	}
	label := func(tok string) Label {
		if id, ok := lids[tok]; ok {
			return id
		}
		id := Label(len(lnames))
		lids[tok] = id
		lnames = append(lnames, tok)
		return id
	}
	for _, e := range raw {
		b.AddEdge(vertex(e.src), label(e.lbl), vertex(e.dst))
	}
	b.SetVertexNames(vnames)
	b.SetLabelNames(lnames)
	return b.Build(), nil
}
