package dynamic

import (
	"sync"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// unionGraph materializes base plus the given journal edges as a fresh
// immutable graph (duplicates collapse in the builder). Display names carry
// over so folded graphs keep resolving named queries.
func unionGraph(base *graph.Graph, journal []graph.Edge) *graph.Graph {
	b := graph.NewBuilder(base.NumVertices(), base.NumLabels())
	b.SetVertexNames(base.VertexNames())
	b.SetLabelNames(base.LabelNames())
	for _, e := range base.Edges() {
		b.AddEdge(e.Src, e.Label, e.Dst)
	}
	for _, e := range journal {
		b.AddEdge(e.Src, e.Label, e.Dst)
	}
	return b.Build()
}

// FoldInput materializes the union of the current base and journal, and
// reports how many journal edges it covers. The serving layer builds (and
// bundles) the next epoch's index from it, then installs the result with
// JournalTail(folded) carried over — the two halves of a fold it performs
// itself because it also writes snapshots and swaps server generations.
func (d *DeltaGraph) FoldInput() (union *graph.Graph, folded int) {
	v := d.cur.Load()
	return unionGraph(v.base, v.journal[:v.jlen]), v.jlen
}

// JournalTail copies the journal edges from position from (a folded count
// previously returned by FoldInput) to the current end — the un-folded
// inserts a new epoch must carry over.
func (d *DeltaGraph) JournalTail(from int) []graph.Edge {
	v := d.cur.Load()
	if from >= v.jlen {
		return nil
	}
	tail := make([]graph.Edge, v.jlen-from)
	copy(tail, v.journal[from:v.jlen])
	return tail
}

// Rebuild folds the journal into the base graph and rebuilds the index,
// synchronously. Concurrent queries keep answering (exactly) against the
// old epoch until the new one is installed; concurrent inserts land in the
// journal and survive the fold.
func (d *DeltaGraph) Rebuild() error {
	return d.foldOnce()
}

// Quiesce blocks until no background fold is running. It does not prevent
// new folds from starting (a concurrent writer can re-cross the threshold);
// call it when the writers are done, e.g. before asserting on JournalLen in
// tests or before shutdown.
func (d *DeltaGraph) Quiesce() {
	for {
		d.foldCtl.Lock()
		running, done := d.foldRunning, d.foldDone
		d.foldCtl.Unlock()
		if !running {
			return
		}
		<-done
	}
}

// maybeTriggerFold starts one background fold goroutine when the journal
// crosses the threshold. Insert callers never fold inline — they only flip
// a flag and return — and at most one folder runs at a time; it keeps
// folding until the journal is back under the threshold or a rebuild fails.
func (d *DeltaGraph) maybeTriggerFold(jlen int) {
	thr := d.opts.RebuildThreshold
	if thr <= 0 || jlen < thr {
		return
	}
	d.foldCtl.Lock()
	if d.foldRunning {
		d.foldCtl.Unlock()
		return
	}
	d.foldRunning = true
	done := make(chan struct{})
	d.foldDone = done
	d.foldCtl.Unlock()
	go func() {
		defer func() {
			d.foldCtl.Lock()
			d.foldRunning = false
			d.foldCtl.Unlock()
			close(done)
		}()
		for d.cur.Load().jlen >= thr {
			if err := d.foldOnce(); err != nil {
				return
			}
		}
	}()
}

// foldOnce performs one complete fold: materialize the union, rebuild the
// index (the long part — no locks held that the write path needs for more
// than the final install), and atomically install the new epoch with any
// concurrently inserted edges carried over.
func (d *DeltaGraph) foldOnce() error {
	d.foldMu.Lock()
	defer d.foldMu.Unlock()
	start := time.Now()
	union, folded := d.FoldInput()
	if folded == 0 {
		return nil
	}
	ix, err := core.Build(union, d.opts.IndexOptions)
	if err != nil {
		if d.opts.OnFold != nil {
			d.opts.OnFold(FoldStats{Epoch: d.Epoch(), Folded: 0, Journal: d.JournalLen(), Duration: time.Since(start), Err: err})
		}
		return err
	}
	st := d.install(union, ix, folded)
	st.Duration = time.Since(start)
	if d.opts.OnFold != nil {
		d.opts.OnFold(st)
	}
	return nil
}

// install publishes a new epoch: base becomes the folded graph with its
// fresh index, and the journal keeps only the edges inserted after the fold
// began. One atomic pointer store; readers pinned to the old view keep an
// exact (base ∪ journal) snapshot of the same edge set.
func (d *DeltaGraph) install(base *graph.Graph, ix *core.Index, folded int) FoldStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.cur.Load()
	leftover := make([]graph.Edge, v.jlen-folded)
	copy(leftover, v.journal[folded:v.jlen])
	nv := &view{
		epoch:       v.epoch + 1,
		base:        base,
		ix:          ix,
		journal:     leftover,
		jlen:        len(leftover),
		constraints: &sync.Map{},
	}
	if nv.jlen > 0 {
		nv.seal()
	}
	d.cur.Store(nv)
	return FoldStats{Epoch: nv.epoch, Folded: folded, Journal: nv.jlen}
}
