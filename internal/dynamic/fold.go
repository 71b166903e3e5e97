package dynamic

import "github.com/g-rpqs/rlc-go/internal/graph"

// FoldInput materializes the union of the current base and journal as a
// fresh immutable graph (duplicates collapse in the builder, display names
// carry over so folded graphs keep resolving named queries), and reports
// how many journal edges it covers. The serving layer builds (and bundles)
// the next generation's index from it and wraps that in a new DeltaGraph
// seeded with JournalTail(folded): the two halves of a fold, which
// internal/server performs because it also writes snapshots and swaps
// server generations.
func (d *DeltaGraph) FoldInput() (union *graph.Graph, folded int) {
	v := d.cur.Load()
	b := graph.NewBuilder(v.base.NumVertices(), v.base.NumLabels())
	b.SetVertexNames(v.base.VertexNames())
	b.SetLabelNames(v.base.LabelNames())
	for _, e := range v.base.Edges() {
		b.AddEdge(e.Src, e.Label, e.Dst)
	}
	for _, e := range v.journal[:v.jlen] {
		b.AddEdge(e.Src, e.Label, e.Dst)
	}
	return b.Build(), v.jlen
}

// JournalTail copies the journal edges from position from (a folded count
// previously returned by FoldInput, or a replication cursor) to the end of
// one published view — the un-folded inserts the next generation must
// carry over, and the journal replication ships.
func (d *DeltaGraph) JournalTail(from int) []graph.Edge {
	v := d.cur.Load()
	if from >= v.jlen {
		return nil
	}
	tail := make([]graph.Edge, v.jlen-from)
	copy(tail, v.journal[from:v.jlen])
	return tail
}
