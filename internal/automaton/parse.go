package automaton

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// Parse reads a path expression in the tool syntax used by the CLIs and
// examples. Labels are whitespace-separated tokens; a parenthesized group or
// single label may carry a '+' suffix:
//
//	"(debits credits)+"     the RLC constraint of Example 1
//	"knows+"                a single-label RLC constraint
//	"a+ b+"                 the extended query Q4
//	"(a b)+ c+"             mixed segments
//
// resolve maps a label token to its id; pass a graph-backed resolver or
// NumericLabels for "l0"/"0"-style tokens.
func Parse(s string, resolve func(string) (labelseq.Label, bool)) (Expr, error) {
	var e Expr
	rest := strings.TrimSpace(s)
	for rest != "" {
		var seg Segment
		var err error
		seg, rest, err = parseSegment(rest, resolve)
		if err != nil {
			return Expr{}, err
		}
		e.Segments = append(e.Segments, seg)
	}
	if len(e.Segments) == 0 {
		return Expr{}, fmt.Errorf("automaton: empty expression %q", s)
	}
	return e, nil
}

func parseSegment(s string, resolve func(string) (labelseq.Label, bool)) (Segment, string, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "(") {
		close := strings.IndexByte(s, ')')
		if close < 0 {
			return Segment{}, "", fmt.Errorf("automaton: unclosed '(' in %q", s)
		}
		inner := s[1:close]
		rest := s[close+1:]
		plus := false
		if strings.HasPrefix(rest, "+") {
			plus = true
			rest = rest[1:]
		}
		labels, err := parseLabels(strings.Fields(inner), resolve)
		if err != nil {
			return Segment{}, "", err
		}
		if len(labels) == 0 {
			return Segment{}, "", fmt.Errorf("automaton: empty group in %q", s)
		}
		return Segment{Labels: labels, Plus: plus}, rest, nil
	}
	// A bare token, optionally with a '+' suffix.
	end := strings.IndexAny(s, " \t(")
	var tok, rest string
	if end < 0 {
		tok, rest = s, ""
	} else {
		tok, rest = s[:end], s[end:]
	}
	plus := strings.HasSuffix(tok, "+")
	tok = strings.TrimSuffix(tok, "+")
	labels, err := parseLabels([]string{tok}, resolve)
	if err != nil {
		return Segment{}, "", err
	}
	return Segment{Labels: labels, Plus: plus}, rest, nil
}

func parseLabels(toks []string, resolve func(string) (labelseq.Label, bool)) (labelseq.Seq, error) {
	var out labelseq.Seq
	for _, t := range toks {
		l, ok := resolve(t)
		if !ok {
			return nil, fmt.Errorf("automaton: unknown label %q", t)
		}
		out = append(out, l)
	}
	return out, nil
}

// ParseForGraph parses an expression resolving label tokens against g's
// label names first and the "l0"/"0" numeric forms second (bounded by g's
// label count). Every surface that parses user expressions — the rlc
// facade, the CLIs, the HTTP server — goes through this one resolver, so
// the accepted token forms cannot drift between them.
func ParseForGraph(s string, g *graph.Graph) (Expr, error) {
	return Parse(s, func(tok string) (labelseq.Label, bool) { return LabelForGraph(tok, g) })
}

// LabelForGraph is ParseForGraph's resolver for one label token: g's label
// names first, then the "l0"/"0" numeric forms bounded by g's label count.
func LabelForGraph(tok string, g *graph.Graph) (labelseq.Label, bool) {
	if l, ok := g.LabelByName(tok); ok {
		return l, true
	}
	l, ok := NumericLabels(tok)
	if !ok || int(l) >= g.NumLabels() {
		return l, false
	}
	return l, ok
}

// NumericLabels resolves tokens of the form "l3" or "3" to label 3. Use it
// when the graph has no label names. Tokens outside the dense int32 label
// id space are rejected rather than silently truncated.
func NumericLabels(tok string) (labelseq.Label, bool) {
	t := strings.TrimPrefix(tok, "l")
	n, err := strconv.Atoi(t)
	if err != nil || n < 0 || int64(n) > math.MaxInt32 {
		return labelseq.NoLabel, false
	}
	return labelseq.Label(n), true
}
