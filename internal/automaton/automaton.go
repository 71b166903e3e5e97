package automaton

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// Segment is one piece of a path expression: a concatenation of labels,
// optionally under the Kleene plus. (a b)+ is {Labels: (a,b), Plus: true};
// a bare label a is {Labels: (a), Plus: false}.
type Segment struct {
	Labels labelseq.Seq
	Plus   bool
}

// Expr is a path expression: the concatenation of its segments. The paper's
// RLC queries are single-segment expressions with Plus set; the extended
// query Q4 is the two-segment expression a+ ∘ b+.
type Expr struct {
	Segments []Segment
}

// Plus returns the single-segment RLC expression L+.
func Plus(l labelseq.Seq) Expr {
	return Expr{Segments: []Segment{{Labels: l.Clone(), Plus: true}}}
}

// ConcatPlus returns the expression l1+ ∘ l2+ ∘ ... for the given segments.
func ConcatPlus(ls ...labelseq.Seq) Expr {
	e := Expr{}
	for _, l := range ls {
		e.Segments = append(e.Segments, Segment{Labels: l.Clone(), Plus: true})
	}
	return e
}

// String renders the expression with numeric labels, e.g. "(l0 l1)+ l2+".
func (e Expr) String() string {
	var b strings.Builder
	for i, s := range e.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		if len(s.Labels) == 1 {
			fmt.Fprintf(&b, "l%d", s.Labels[0])
		} else {
			b.WriteByte('(')
			for j, l := range s.Labels {
				if j > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "l%d", l)
			}
			b.WriteByte(')')
		}
		if s.Plus {
			b.WriteByte('+')
		}
	}
	return b.String()
}

// State is an NFA state id. State 0 is always the start state.
type State = int32

// NFA is a nondeterministic automaton over edge labels with a single accept
// state. The zero value is not usable; build one with Compile or NewPlus.
type NFA struct {
	numStates int
	numLabels int
	accept    State
	// step[q*numLabels+l] is the bitset of states reachable from q on l.
	// Automata built here have at most 63 states (enforced by Compile).
	step []uint64
	// live is the set of states with at least one outgoing transition.
	live uint64
	expr Expr
	// rev caches Reverse(): compiled automata are shared across goroutines
	// and searched backward once per query, so the reverse is built once.
	rev atomic.Pointer[NFA]
}

// MaxStates bounds the automaton size so state sets fit one uint64 word.
// Expressions from the paper's workloads use at most k+1 states per segment
// with k <= 4, far below the bound.
const MaxStates = 63

// ErrTooLarge reports an expression that exceeds MaxStates.
var ErrTooLarge = errors.New("automaton: expression needs too many states")

// ErrEmpty reports an expression with no labels.
var ErrEmpty = errors.New("automaton: empty expression")

// NewPlus compiles the RLC constraint L+ directly.
func NewPlus(l labelseq.Seq, numLabels int) (*NFA, error) {
	return Compile(Plus(l), numLabels)
}

// Compile builds the NFA for an expression over a label universe of size
// numLabels. Within a segment (a1 ... am)+ the states form a cycle of
// length m; completing the final segment reaches the accept state.
func Compile(e Expr, numLabels int) (*NFA, error) {
	if len(e.Segments) == 0 {
		return nil, ErrEmpty
	}
	total := 0
	for _, s := range e.Segments {
		if len(s.Labels) == 0 {
			return nil, ErrEmpty
		}
		for _, l := range s.Labels {
			if l < 0 || int(l) >= numLabels {
				return nil, fmt.Errorf("automaton: label %d outside universe of size %d", l, numLabels)
			}
		}
		total += len(s.Labels)
	}
	if total+1 > MaxStates {
		return nil, ErrTooLarge
	}

	n := &NFA{
		numStates: total + 1,
		numLabels: numLabels,
		accept:    State(total),
		step:      make([]uint64, (total+1)*numLabels),
		expr:      e,
	}
	// segStart[i] is the state reading the first label of segment i.
	segStart := make([]State, len(e.Segments)+1)
	q := State(0)
	for i, s := range e.Segments {
		segStart[i] = q
		q += State(len(s.Labels))
	}
	segStart[len(e.Segments)] = n.accept

	q = 0
	for i, s := range e.Segments {
		m := len(s.Labels)
		for j, l := range s.Labels {
			from := q + State(j)
			if j+1 < m {
				n.addEdge(from, l, from+1)
				continue
			}
			// Completing the segment: loop back when Plus, and move on
			// (to the next segment start, or accept).
			if s.Plus {
				n.addEdge(from, l, segStart[i])
			}
			n.addEdge(from, l, segStart[i+1])
		}
		q += State(m)
	}
	return n, nil
}

func (n *NFA) addEdge(from State, l labelseq.Label, to State) {
	n.step[int(from)*n.numLabels+int(l)] |= 1 << uint(to)
	n.live |= 1 << uint(from)
}

// NumStates returns the number of states including the accept state.
func (n *NFA) NumStates() int { return n.numStates }

// NumLabels returns the size of the label universe.
func (n *NFA) NumLabels() int { return n.numLabels }

// Accept returns the accept state.
func (n *NFA) Accept() State { return n.accept }

// Expr returns the expression the automaton was compiled from.
func (n *NFA) Expr() Expr { return n.expr }

// StartSet returns the bitset containing only the start state.
func (n *NFA) StartSet() uint64 { return 1 }

// AcceptSet returns the bitset containing only the accept state.
func (n *NFA) AcceptSet() uint64 { return 1 << uint(n.accept) }

// Step returns the states reachable from q on label l, as a bitset.
func (n *NFA) Step(q State, l labelseq.Label) uint64 {
	return n.step[int(q)*n.numLabels+int(l)]
}

// LiveSet returns the bitset of states with at least one outgoing
// transition. A search need not expand a product node in any other state —
// the accept state of a compiled expression is one: nothing follows it.
func (n *NFA) LiveSet() uint64 { return n.live }

// StepSet advances a whole state set on label l.
func (n *NFA) StepSet(set uint64, l labelseq.Label) uint64 {
	var out uint64
	for s := set; s != 0; s &= s - 1 {
		q := trailingZeros(s)
		out |= n.step[q*n.numLabels+int(l)]
	}
	return out
}

// Accepts reports whether the automaton accepts the label sequence.
func (n *NFA) Accepts(seq labelseq.Seq) bool {
	set := n.StartSet()
	for _, l := range seq {
		if l < 0 || int(l) >= n.numLabels {
			return false
		}
		set = n.StepSet(set, l)
		if set == 0 {
			return false
		}
	}
	return set&n.AcceptSet() != 0
}

// ReverseState maps an original state id to the id of the corresponding
// state in Reverse()'s automaton (the involution that swaps the start and
// accept ids and fixes everything else). Bidirectional searches use it to
// detect frontier meetings.
func (n *NFA) ReverseState(q State) State {
	switch q {
	case 0:
		return n.accept
	case n.accept:
		return 0
	}
	return q
}

// Reverse returns the automaton with all transitions reversed, its start at
// the original accept state, and its accept at the original start state.
// Backward searches (and the backward half of BiBFS) run on the reverse.
// State q of the original corresponds to state ReverseState(q) of the
// result. The reverse is built on first use and shared afterwards; it must
// not be mutated.
func (n *NFA) Reverse() *NFA {
	if r := n.rev.Load(); r != nil {
		return r
	}
	n.rev.CompareAndSwap(nil, n.buildReverse()) // first use builds the reverse once per automaton
	return n.rev.Load()
}

func (n *NFA) buildReverse() *NFA {
	// ReverseState swaps ids 0 and n.accept, so the original accept becomes
	// the reverse start (0) and the original start the reverse accept.
	ren := n.ReverseState
	r := &NFA{
		numStates: n.numStates,
		numLabels: n.numLabels,
		accept:    ren(0),
		step:      make([]uint64, len(n.step)),
		expr:      n.expr,
	}
	for q := 0; q < n.numStates; q++ {
		for l := 0; l < n.numLabels; l++ {
			targets := n.step[q*n.numLabels+l]
			for s := targets; s != 0; s &= s - 1 {
				r.addEdge(ren(State(trailingZeros(s))), labelseq.Label(l), ren(State(q)))
			}
		}
	}
	return r
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
