package traversal

import (
	"context"
	"math/bits"
	"slices"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// Successors is a successor source: the edges a search may follow out of v
// in one direction, as parallel neighbour/label slices that stay valid
// until the next call and must not be mutated. A graph's OutEdges and
// InEdges are the base sources; the delta overlay supplies, per direction,
// the union of the base CSR, its sorted sealed journal and the unsealed tail.
type Successors func(v graph.Vertex) (nbrs []graph.Vertex, lbls []graph.Label)

// node is a product-graph node: graph vertex x NFA state.
type node struct {
	v graph.Vertex
	q automaton.State
}

// side is one direction of a search: where its edges come from, the
// automaton stepped along them, and the marks and frontier it owns. Marks
// are epoch-stamped and indexed v*numStates+q in the stepping automaton's
// own state ids; a slot is visited in the current search iff it holds the
// evaluator's current stamp.
type side struct {
	succ     Successors
	step     *automaton.NFA
	seen     []uint32
	frontier []node
}

// Evaluator evaluates path queries by online traversal. It is not safe for
// concurrent use; create one per goroutine.
type Evaluator struct {
	g        *graph.Graph // what BFS and DFS walk; nil on NewEvaluatorOver evaluators
	n        int          // vertex count: marks hold n*numStates slots
	out, in  Successors   // what the kernel walks
	stamp    uint32
	fwd, bwd side
	next     []node // spare frontier buffer, rotated with the sides' by expand

	// LastVisited reports how many product nodes the previous call
	// explored — useful when comparing traversal effort to index lookups.
	LastVisited int
}

// NewEvaluator returns an evaluator over g.
func NewEvaluator(g *graph.Graph) *Evaluator {
	return &Evaluator{g: g, n: g.NumVertices(), out: g.OutEdges, in: g.InEdges}
}

// NewEvaluatorOver returns an evaluator over an arbitrary pair of successor
// sources on n vertices — how the delta overlay searches a pinned view. in
// must be the transpose of out: every edge out yields from x to y, in yields
// from y to x. Every kernel driver works on it; BFS and DFS walk a graph and
// are available only on evaluators from NewEvaluator.
func NewEvaluatorOver(n int, out, in Successors) *Evaluator {
	return &Evaluator{n: n, out: out, in: in}
}

// begin starts a new search: a fresh stamp invalidates every mark at once.
func (e *Evaluator) begin() {
	e.stamp++
	if e.stamp == 0 { // wrapped: stale marks could collide, clear them
		clear(e.fwd.seen)
		clear(e.bwd.seen)
		e.stamp = 1
	}
	e.LastVisited = 0
}

// open points d at a successor source and stepping automaton with an empty
// frontier, growing its marks on first need (the backward marks exist only
// once a search runs backward). Fresh marks are zero and stamps start at 1.
func (e *Evaluator) open(d *side, succ Successors, step *automaton.NFA) {
	d.succ, d.step, d.frontier = succ, step, d.frontier[:0]
	if need := e.n * step.NumStates(); len(d.seen) < need {
		d.seen = make([]uint32, need)
	}
}

// seed puts (v, start state) on d's frontier.
func (e *Evaluator) seed(d *side, v graph.Vertex) {
	slot := int(v) * d.step.NumStates()
	if d.seen[slot] == e.stamp {
		return
	}
	d.seen[slot] = e.stamp
	e.LastVisited++
	d.frontier = append(d.frontier, node{v, 0})
}

// expand is the product-search kernel — the one place a frontier is stepped
// through an automaton. It advances d by one BFS level: every frontier node
// follows its successors, and each unmarked product node reached is marked
// and queued. The level stops early, reporting true, when a new node is
// already marked on the other side of a bidirectional search (other is that
// side's marks, indexed in the reverse automaton's ids; nil when
// unidirectional) or when visit accepts a vertex reached in the accept state
// (nil visit: none). The single accept state makes (vertex, accept) one
// product node, so visit sees each vertex at most once per search.
func (e *Evaluator) expand(d *side, other []uint32, visit func(graph.Vertex) bool) bool {
	step, seen, stamp := d.step, d.seen, e.stamp
	ns, accept, live := step.NumStates(), step.Accept(), step.LiveSet()
	next, visited := e.next[:0], 0
	hit := false
level:
	for _, nd := range d.frontier {
		nbrs, lbls := d.succ(nd.v) // successor source: CSR views or the overlay's reused scratch
		for i, y := range nbrs {
			for m := step.Step(nd.q, lbls[i]); m != 0; m &= m - 1 {
				q := automaton.State(bits.TrailingZeros64(m))
				slot := int(y)*ns + int(q)
				if seen[slot] == stamp {
					continue
				}
				seen[slot] = stamp
				visited++
				if other != nil && other[int(y)*ns+int(step.ReverseState(q))] == stamp {
					hit = true
					break level
				}
				if q == accept && visit != nil && visit(y) {
					hit = true
					break level
				}
				if live>>uint(q)&1 != 0 { // nothing follows a dead state: marked, never expanded
					next = append(next, node{y, q}) // reused buffer: grows to the widest level once
				}
			}
		}
	}
	d.frontier, e.next = next, d.frontier
	e.LastVisited += visited
	return hit
}

// BFS reports whether some path from s to t matches the automaton, using a
// forward NFA-guided breadth-first search. BFS and DFS are deliberately
// self-contained loops over the graph itself that go through neither expand
// nor a Successors source: they are the oracles the kernel's users are
// tested against.
func (e *Evaluator) BFS(s, t graph.Vertex, nfa *automaton.NFA) bool {
	ns, accept := nfa.NumStates(), nfa.Accept()
	e.begin()
	e.open(&e.fwd, e.out, nfa)
	e.seed(&e.fwd, s)
	seen, stamp := e.fwd.seen, e.stamp

	for len(e.fwd.frontier) > 0 {
		e.next = e.next[:0]
		for _, nd := range e.fwd.frontier {
			dsts, lbls := e.g.OutEdges(nd.v)
			for i := range dsts {
				for m := nfa.Step(nd.q, lbls[i]); m != 0; m &= m - 1 {
					q := automaton.State(bits.TrailingZeros64(m))
					slot := int(dsts[i])*ns + int(q)
					if seen[slot] == stamp {
						continue
					}
					if dsts[i] == t && q == accept {
						return true
					}
					seen[slot] = stamp
					e.LastVisited++
					e.next = append(e.next, node{dsts[i], q})
				}
			}
		}
		e.fwd.frontier, e.next = e.next, e.fwd.frontier
	}
	return false
}

// DFS reports whether some path from s to t matches the automaton, using a
// depth-first product search. The paper notes DFS as the BFS alternative
// with the same complexity but worse practical behaviour than BiBFS
// (Section VI-a); it is provided for completeness and as another oracle for
// the test suite.
func (e *Evaluator) DFS(s, t graph.Vertex, nfa *automaton.NFA) bool {
	ns, accept := nfa.NumStates(), nfa.Accept()
	e.begin()
	e.open(&e.fwd, e.out, nfa)
	e.seed(&e.fwd, s)
	seen, stamp, stack := e.fwd.seen, e.stamp, e.fwd.frontier

	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dsts, lbls := e.g.OutEdges(nd.v)
		for i := range dsts {
			for m := nfa.Step(nd.q, lbls[i]); m != 0; m &= m - 1 {
				q := automaton.State(bits.TrailingZeros64(m))
				slot := int(dsts[i])*ns + int(q)
				if seen[slot] == stamp {
					continue
				}
				if dsts[i] == t && q == accept {
					e.fwd.frontier = stack
					return true
				}
				seen[slot] = stamp
				e.LastVisited++
				stack = append(stack, node{dsts[i], q})
			}
		}
	}
	e.fwd.frontier = stack
	return false
}

// BiBFS reports whether some path from s to t matches the automaton, using
// a bidirectional NFA-guided breadth-first search that always expands the
// smaller frontier. The backward side runs the reverse automaton over the
// in-edges; the two sides meet when one reaches a product node the other
// has marked. The start node is itself a meet only if s == t and the
// automaton accepts the empty word — expressions never do (every segment
// consumes at least one label), so seeding needs no special case. Once the
// evaluator's buffers are warm a call allocates nothing.
func (e *Evaluator) BiBFS(s, t graph.Vertex, nfa *automaton.NFA) bool {
	// The background context never cancels, so there is no error to report.
	ok, _ := e.BiBFSCtx(context.Background(), s, t, nfa)
	return ok
}

// BiBFSCtx is BiBFS under a context, checked once per BFS level; its error
// is the only one returned. The overlay answers its reads with it.
func (e *Evaluator) BiBFSCtx(ctx context.Context, s, t graph.Vertex, nfa *automaton.NFA) (bool, error) {
	e.begin()
	fwd, bwd := &e.fwd, &e.bwd
	e.open(fwd, e.out, nfa)          // marks grow once per evaluator
	e.open(bwd, e.in, nfa.Reverse()) // marks grow once per evaluator
	e.seed(fwd, s)                   // frontier buffer grows once
	e.seed(bwd, t)                   // frontier buffer grows once
	for len(fwd.frontier) > 0 && len(bwd.frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		d, o := fwd, bwd
		if len(bwd.frontier) < len(fwd.frontier) {
			d, o = bwd, fwd
		}
		if e.expand(d, o.seen, nil) {
			return true, nil
		}
	}
	return false, nil
}

// closure runs the unidirectional search from every start to exhaustion,
// streaming accepting vertices to visit; ctx is checked once per BFS level.
func (e *Evaluator) closure(ctx context.Context, succ Successors, step *automaton.NFA, starts []graph.Vertex, visit func(graph.Vertex) bool) error {
	e.begin()
	d := &e.fwd
	e.open(d, succ, step)
	for _, s := range starts {
		e.seed(d, s)
	}
	for len(d.frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.expand(d, nil, visit) {
			break
		}
	}
	return nil
}

// ReachableFromManyFunc streams every vertex reachable from ANY of the
// starts by an accepted path to visit as the search discovers it (each
// vertex once, in discovery order). A true return from visit stops the
// search early — the hook that lets index-assisted evaluation of extended
// queries exit on the first hit. ctx is checked once per BFS level; its error
// is the only one returned.
func (e *Evaluator) ReachableFromManyFunc(ctx context.Context, starts []graph.Vertex, nfa *automaton.NFA, visit func(graph.Vertex) bool) error {
	return e.closure(ctx, e.out, nfa, starts, visit)
}

// ReachableIntoManyFunc is the backward mirror: it streams every vertex x
// such that some accepted path leads from x into one of the targets. The
// hybrid evaluator expands the rarer segment of a two-segment query
// backward with it.
func (e *Evaluator) ReachableIntoManyFunc(ctx context.Context, targets []graph.Vertex, nfa *automaton.NFA, visit func(graph.Vertex) bool) error {
	return e.closure(ctx, e.in, nfa.Reverse(), targets, visit)
}

// ReachableFromMany collects ReachableFromManyFunc's vertices in ascending
// order. The hybrid evaluator uses it to push whole frontiers through one
// constraint segment.
func (e *Evaluator) ReachableFromMany(starts []graph.Vertex, nfa *automaton.NFA) []graph.Vertex {
	var out []graph.Vertex
	// The background context never cancels, so there is no error to report.
	_ = e.ReachableFromManyFunc(context.Background(), starts, nfa, func(v graph.Vertex) bool {
		out = append(out, v)
		return false
	})
	slices.Sort(out)
	return out
}

// ReachableFrom is the single-source ReachableFromMany. Workload generation
// uses it to mine true queries.
func (e *Evaluator) ReachableFrom(s graph.Vertex, nfa *automaton.NFA) []graph.Vertex {
	return e.ReachableFromMany([]graph.Vertex{s}, nfa)
}

// EvalRLC answers the RLC query (s, t, L+) by forward BFS. It is a
// convenience wrapper; workload loops should compile the NFA once.
func EvalRLC(g *graph.Graph, s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	nfa, err := automaton.NewPlus(l, g.NumLabels())
	if err != nil {
		return false, err
	}
	return NewEvaluator(g).BFS(s, t, nfa), nil
}

// EvalRLCBi answers the RLC query (s, t, L+) by bidirectional BFS.
func EvalRLCBi(g *graph.Graph, s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	nfa, err := automaton.NewPlus(l, g.NumLabels())
	if err != nil {
		return false, err
	}
	return NewEvaluator(g).BiBFS(s, t, nfa), nil
}
