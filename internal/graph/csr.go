package graph

import (
	"fmt"
)

// CSR exposes the graph's out-adjacency arrays: every edge, once. The
// slices are views into the graph (or, for an adopted graph, into the
// snapshot bytes) and must not be mutated. The snapshot writer serializes
// them verbatim; AdoptCSR is the inverse. The in-adjacency is not part of
// it: it is the transpose of these arrays, derived whenever a Graph is made.
type CSR struct {
	// Edges leaving v are OutDst[OutOff[v]:OutOff[v+1]] with labels OutLbl
	// at the same positions, sorted by (dst, label).
	OutOff []int64
	OutDst []Vertex
	OutLbl []Label
}

// RawCSR returns views of the graph's out-adjacency arrays.
func (g *Graph) RawCSR() CSR {
	return CSR{OutOff: g.outOff, OutDst: g.outDst, OutLbl: g.outLbl}
}

// VertexNames returns the vertex display names (possibly nil), index =
// vertex id.
func (g *Graph) VertexNames() []string { return g.vertexNames }

// AdoptCSR wraps pre-built out-adjacency arrays in a Graph without copying
// them — the zero-copy open path of snapshot bundles — and derives the
// in-adjacency from them with the same counting transpose Builder.Build
// runs, so the two directions cannot disagree. It validates everything
// needed for the Graph's accessors, the transpose and the traversal
// evaluators to be memory-safe on untrusted input: the offset array must be
// an exact closed prefix sum over the edge arrays, and every vertex and
// label value must be in range. It does not re-check the (dst, label) sort
// order inside adjacency runs — HasEdge's binary search would degrade to a
// wrong answer, not a crash — so integrity-sensitive callers should also
// verify the bundle checksums.
//
// The arrays must stay valid and unmodified for the life of the Graph.
func AdoptCSR(n, numLabels int, csr CSR, vertexNames, labelNames []string) (*Graph, error) {
	if n < 0 || numLabels < 0 {
		return nil, fmt.Errorf("graph: adopt: negative shape n=%d numLabels=%d", n, numLabels)
	}
	m := len(csr.OutDst)
	if err := checkOffsets(csr.OutOff, n, m); err != nil {
		return nil, err
	}
	if len(csr.OutLbl) != m {
		return nil, fmt.Errorf("graph: adopt: %d labels for %d edges", len(csr.OutLbl), m)
	}
	if err := checkIDs("out dst", csr.OutDst, n); err != nil {
		return nil, err
	}
	if err := checkIDs("out label", csr.OutLbl, numLabels); err != nil {
		return nil, err
	}
	if vertexNames != nil && len(vertexNames) != n {
		return nil, fmt.Errorf("graph: adopt: %d vertex names for %d vertices", len(vertexNames), n)
	}
	if labelNames != nil && len(labelNames) != numLabels {
		return nil, fmt.Errorf("graph: adopt: %d label names for %d labels", len(labelNames), numLabels)
	}
	g := &Graph{
		n:           n,
		numLabels:   numLabels,
		outOff:      csr.OutOff,
		outDst:      csr.OutDst,
		outLbl:      csr.OutLbl,
		vertexNames: vertexNames,
		labelNames:  labelNames,
	}
	g.fillIn()
	return g, nil
}

// checkOffsets validates the out-offset array: length n+1, starting at 0,
// ending at m, non-decreasing throughout.
func checkOffsets(off []int64, n, m int) error {
	if len(off) != n+1 {
		return fmt.Errorf("graph: adopt: out offsets sized %d for %d vertices", len(off), n)
	}
	if off[0] != 0 || off[n] != int64(m) {
		return fmt.Errorf("graph: adopt: out offsets span [%d, %d], want [0, %d]", off[0], off[n], m)
	}
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return fmt.Errorf("graph: adopt: out offsets decrease at vertex %d", v)
		}
	}
	return nil
}

// checkIDs validates that every value of a vertex or label array lies in
// [0, bound).
func checkIDs[T ~int32](what string, ids []T, bound int) error {
	for i, v := range ids {
		if v < 0 || int(v) >= bound {
			return fmt.Errorf("graph: adopt: %s[%d] = %d out of range [0, %d)", what, i, v, bound)
		}
	}
	return nil
}

// Fingerprint identifies the graph an index was built from: the shape
// triple plus an order-independent-of-nothing content hash — FNV-1a over
// every (src, dst, label) in the canonical CSR order. Two graphs with equal
// fingerprints hold exactly the same edge set with the same dense ids.
// Snapshot bundles embed it so a loaded index can never be silently bound
// to the wrong graph.
type Fingerprint struct {
	N         int
	M         int
	NumLabels int
	EdgeHash  uint64
}

// String renders the fingerprint for error messages.
func (fp Fingerprint) String() string {
	return fmt.Sprintf("n=%d m=%d labels=%d edgehash=%016x", fp.N, fp.M, fp.NumLabels, fp.EdgeHash)
}

// Compact renders the fingerprint as a single space-free token
// ("n.m.labels.edgehash"), the form the replication protocol puts in HTTP
// headers and /healthz so two processes can compare served bundles without
// parsing prose. It is injective over the struct, so equal tokens mean
// equal fingerprints.
func (fp Fingerprint) Compact() string {
	return fmt.Sprintf("%d.%d.%d.%016x", fp.N, fp.M, fp.NumLabels, fp.EdgeHash)
}

// Fingerprint computes the graph's fingerprint. O(m), allocation-free.
func (g *Graph) Fingerprint() Fingerprint {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint32) {
		h = (h ^ uint64(v&0xff)) * prime64
		h = (h ^ uint64(v>>8&0xff)) * prime64
		h = (h ^ uint64(v>>16&0xff)) * prime64
		h = (h ^ uint64(v>>24)) * prime64
	}
	for v := Vertex(0); int(v) < g.n; v++ {
		dsts, lbls := g.OutEdges(v)
		for i := range dsts {
			mix(uint32(v))
			mix(uint32(dsts[i]))
			mix(uint32(lbls[i]))
		}
	}
	return Fingerprint{N: g.n, M: g.NumEdges(), NumLabels: g.numLabels, EdgeHash: h}
}
