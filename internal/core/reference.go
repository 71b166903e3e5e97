package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// This file is Algorithm 2 as the paper states it: vertex ids, label
// sequences carried along each path, plain maps for the entry sets, every
// pruning rule switchable and the access order selectable. Build
// (builder.go) runs the same algorithm with all three rules on in IN-OUT
// order, in access-rank space and with shortcuts whose soundness builder.go
// argues above kbs; the tests hold it to this one byte for byte
// (TestReferenceMatchesBuild, TestBuildDigestStable). The pruning and
// ordering ablations and the ETC baseline (internal/etc) build through it.

// KBS is the kernel-based search of Algorithm 2 over one graph, reusable
// from one source to the next. It records nothing itself: Run hands every
// (vertex, k-MR) pair it meets to its caller.
type KBS struct {
	g     *graph.Graph
	coder *labelseq.Coder
	k     int

	seen    map[kbsState]bool // kernel-search states of the current run
	visited []uint32          // kernel-BFS (vertex, phase) marks: the stamp of the BFS that met it
	stamp   uint32
	paths   []kbsPath
	seq     labelseq.Seq // the labels of the path being visited
	nodes   []bfsNode
}

// kbsPath is a kernel-search path: its far endpoint, its labels in path
// order and their code.
type kbsPath struct {
	v      graph.Vertex
	n      int
	code   labelseq.Code
	labels [MaxK]labelseq.Label
}

// kbsState is a visited kernel-search state: the endpoint and the code of
// the path's labels.
type kbsState struct {
	v    graph.Vertex
	code labelseq.Code
}

// bfsNode is a kernel-BFS node: a vertex and the number of kernel labels
// consumed in the current period.
type bfsNode struct {
	v     graph.Vertex
	phase int
}

type kbsFrontier struct {
	kernel labelseq.Seq
	verts  []graph.Vertex
}

// NewKBS returns a search over g for k-MRs of at most k labels; coder
// must encode sequences of g's labels up to length k (k <= MaxK).
func NewKBS(g *graph.Graph, coder *labelseq.Coder, k int) *KBS {
	return &KBS{g: g, coder: coder, k: k, seen: map[kbsState]bool{}, visited: make([]uint32, g.NumVertices()*k)}
}

// Run searches from src, backward along in-edges (paths y ⇝ src) or
// forward along out-edges (src ⇝ y). The kernel search visits every path of
// at most k labels once per (endpoint, label sequence) and calls insert(y,
// mr, code) with the minimum repeat of its labels and that MR's code; it
// registers y in the frontier of its MR whatever insert returns (Example
// 5). Then, kernel by kernel in ascending code order, a kernel BFS extends
// the frontier under mr+ and calls insert at every completed period; there
// insert's result says whether to expand past y, and false is PR3. mr is
// valid only during the call.
func (s *KBS) Run(src graph.Vertex, forward bool, insert func(y graph.Vertex, mr labelseq.Seq, code labelseq.Code) bool) {
	edges := s.g.InEdges
	if forward {
		edges = s.g.OutEdges
	}
	clear(s.seen)
	frontiers := map[labelseq.Code]*kbsFrontier{}
	s.paths = append(s.paths[:0], kbsPath{v: src})
	for head := 0; head < len(s.paths); head++ {
		p := s.paths[head]
		nbrs, lbls := edges(p.v)
		for i, y := range nbrs {
			next := kbsPath{v: y, n: p.n + 1}
			if forward {
				next.code = s.coder.Append(p.code, lbls[i])
			} else {
				next.code = s.coder.Prepend(p.code, lbls[i], p.n)
			}
			st := kbsState{y, next.code}
			if s.seen[st] {
				continue
			}
			s.seen[st] = true
			if forward {
				copy(next.labels[:], p.labels[:p.n])
				next.labels[p.n] = lbls[i]
			} else {
				next.labels[0] = lbls[i]
				copy(next.labels[1:], p.labels[:p.n])
			}
			s.seq = append(s.seq[:0], next.labels[:next.n]...)
			mr := labelseq.MinimumRepeat(s.seq)
			code := s.coder.Encode(mr)
			insert(y, mr, code)
			f := frontiers[code]
			if f == nil {
				f = &kbsFrontier{kernel: mr.Clone()}
				frontiers[code] = f
			}
			f.verts = append(f.verts, y)
			if next.n < s.k {
				s.paths = append(s.paths, next)
			}
		}
	}
	for _, code := range slices.Sorted(maps.Keys(frontiers)) {
		s.kernelBFS(edges, forward, frontiers[code], code, insert)
	}
}

// kernelBFS walks from f's vertices under kernel+; walking backward
// consumes the kernel's labels last to first.
func (s *KBS) kernelBFS(edges func(graph.Vertex) ([]graph.Vertex, []labelseq.Label), forward bool, f *kbsFrontier,
	code labelseq.Code, insert func(graph.Vertex, labelseq.Seq, labelseq.Code) bool) {
	if s.stamp++; s.stamp == 0 {
		clear(s.visited)
		s.stamp = 1
	}
	mark := func(v graph.Vertex, phase int) bool {
		slot := &s.visited[int(v)*s.k+phase]
		fresh := *slot != s.stamp
		*slot = s.stamp
		return fresh
	}
	m := len(f.kernel)
	s.nodes = s.nodes[:0]
	for _, v := range f.verts {
		if mark(v, 0) {
			s.nodes = append(s.nodes, bfsNode{v, 0})
		}
	}
	for head := 0; head < len(s.nodes); head++ {
		nd := s.nodes[head]
		expected := f.kernel[nd.phase]
		if !forward {
			expected = f.kernel[m-1-nd.phase]
		}
		next := (nd.phase + 1) % m
		nbrs, lbls := edges(nd.v)
		for i, y := range nbrs {
			if lbls[i] != expected || !mark(y, next) {
				continue
			}
			if next == 0 && !insert(y, f.kernel, code) {
				continue
			}
			s.nodes = append(s.nodes, bfsNode{y, next})
		}
	}
}

// Order selects the vertex processing order of Algorithm 2. The paper, and
// Build, use OrderInOut; the alternatives exist for the ordering ablation
// (they change index size and build time, never correctness).
type Order uint8

const (
	// OrderInOut sorts by (|out(v)|+1)*(|in(v)|+1) descending — the
	// IN-OUT strategy of Section V-B.
	OrderInOut Order = iota
	// OrderDegreeSum sorts by |out(v)|+|in(v)| descending, ties by
	// ascending id.
	OrderDegreeSum
	// OrderNatural processes vertices by ascending id.
	OrderNatural
	// OrderReverse processes vertices by descending id — a deliberately
	// bad order for the ablation.
	OrderReverse
)

// accessOrder materializes the vertex processing order o.
func accessOrder(g *graph.Graph, o Order) ([]graph.Vertex, error) {
	if o == OrderInOut {
		return graph.OrderByDegreeProduct(g), nil
	}
	order := make([]graph.Vertex, g.NumVertices())
	for i := range order {
		order[i] = graph.Vertex(i)
	}
	switch o {
	case OrderDegreeSum:
		degree := func(v graph.Vertex) int { return g.OutDegree(v) + g.InDegree(v) }
		slices.SortFunc(order, func(a, b graph.Vertex) int {
			return cmp.Or(cmp.Compare(degree(b), degree(a)), cmp.Compare(a, b))
		})
	case OrderNatural:
	case OrderReverse:
		slices.Reverse(order)
	default:
		return nil, fmt.Errorf("rlc: unknown access order %d", o)
	}
	return order, nil
}

// Pruning selects what BuildReference runs: the pruning rules of Section
// V-A, none in the zero value, and the access order of Section V-B, IN-OUT
// in the zero value.
type Pruning struct {
	PR1, PR2, PR3 bool
	Order         Order
}

// BuildReference builds the index of g as Algorithm 2 states it, with the
// pruning rules and the access order p selects. PR1 rejects an entry that
// Query already answers on the partial index, PR2 one at a vertex ranked
// before the source, and PR3 expands no further past a rejected entry;
// without PR1 an entry already present is still rejected. Every rule set and
// order gives a sound and complete index; with all three rules on in IN-OUT
// order it writes the same bundle bytes as Build, many times slower. An
// unknown order is an error.
func BuildReference(g *graph.Graph, opts Options, p Pruning) (*Index, error) {
	ix, _, _, err := buildReference(g, opts, p)
	return ix, err
}

// buildReference is BuildReference that also hands back the entry lists the
// index was sealed from.
func buildReference(g *graph.Graph, opts Options, p Pruning) (ix *Index, out, in [][]entry, err error) {
	order, err := accessOrder(g, p.Order)
	if err != nil {
		return nil, nil, nil, err
	}
	if ix, err = newIndex(g, opts, order); err != nil {
		return nil, nil, nil, err
	}
	n := g.NumVertices()
	lout, lin := make([]map[entry]bool, n), make([]map[entry]bool, n)
	for v := range n {
		lout[v], lin[v] = map[entry]bool{}, map[entry]bool{}
	}
	// query is Algorithm 1's Query(s, t, mr+) on the partial index.
	query := func(s, t graph.Vertex, mr labelseq.ID) bool {
		if lout[s][entry{ix.rank[t], mr}] || lin[t][entry{ix.rank[s], mr}] {
			return true
		}
		for e := range lout[s] {
			if e.mr == mr && lin[t][e] {
				return true
			}
		}
		return false
	}
	kbs := NewKBS(g, ix.dict.Coder(), ix.k)
	for r, src := range ix.order {
		hub := int32(r)
		for _, forward := range []bool{false, true} {
			kbs.Run(src, forward, func(y graph.Vertex, mr labelseq.Seq, code labelseq.Code) bool {
				// Backward, y reaches src: (src, mr) goes to Lout(y).
				// Forward, src reaches y: it goes to Lin(y).
				list, s, t := lout[y], y, src
				if forward {
					list, s, t = lin[y], src, y
				}
				if p.PR2 && ix.rank[y] < hub {
					return !p.PR3
				}
				id := ix.dict.LookupCode(code)
				if id == labelseq.InvalidID {
					id = ix.dict.InternCode(code, mr)
				} else if list[entry{hub, id}] || p.PR1 && query(s, t, id) {
					return !p.PR3
				}
				list[entry{hub, id}] = true
				return true
			})
		}
	}
	out, in = make([][]entry, n), make([][]entry, n)
	for v := range n {
		out[v], in[v] = sortedEntries(lout[v]), sortedEntries(lin[v])
	}
	if err := ix.seal(out, in, opts.MaxIndexBytes); err != nil {
		return nil, nil, nil, err
	}
	return ix, out, in, nil
}

func sortedEntries(set map[entry]bool) []entry {
	return slices.SortedFunc(maps.Keys(set), func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.hub, b.hub), cmp.Compare(a.mr, b.mr))
	})
}
