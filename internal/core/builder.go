package core

import (
	"cmp"
	"slices"
	"sort"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// searchState is a kernel-search BFS state: a vertex plus the label
// sequence of the path between it and the KBS source (read in path order).
// The packed code deduplicates states; the inline array avoids per-state
// allocations (MaxK bounds the depth).
type searchState struct {
	v     graph.Vertex
	code  labelseq.Code
	depth int32
	seq   [MaxK]labelseq.Label
}

// kernelFrontier collects the frontier vertices of one kernel candidate.
// The builder recycles these (and their slices) from one KBS to the next.
type kernelFrontier struct {
	kernel labelseq.Seq
	code   labelseq.Code
	verts  []graph.Vertex
}

// builder holds the reusable scratch space for all KBS runs of one Build,
// plus the mutable per-vertex entry lists that insert appends to. The lists
// stay per-vertex during construction (cheap appends, no shifting); seal
// packs them into hub-sorted groups once the last KBS finished.
type builder struct {
	ix    *Index
	g     *graph.Graph
	coder *labelseq.Coder
	k     int

	// Mutable Lin/Lout under construction, indexed by vertex id.
	in  [][]entry
	out [][]entry

	// Label-partitioned adjacency: kernel-BFS follows edges of one
	// expected label at a time, so edges are regrouped by label once
	// instead of filtered on every visit.
	inByLabel  *labelCSR
	outByLabel *labelCSR

	// Kernel-search scratch: the BFS queue, the (code, vertex) states
	// already visited, and the labels of the state being visited — copied
	// here before anything takes a slice of them, so the state itself
	// stays on the stack.
	queue  []searchState
	seen   *stampTable
	seqBuf [MaxK]labelseq.Label

	// Frontier registry for the current KBS: frontierOf maps a kernel's
	// code to its slot in frontiers, member holds the (slot, vertex)
	// pairs already in a slot's verts. kbs sorts frontiers by code once
	// the kernel search is over and the slots no longer matter.
	frontiers  []kernelFrontier
	frontierOf *stampTable
	member     *stampTable

	// fixedSet holds the (mr, hub) pairs (fixedKey) of the current KBS's
	// fixed entry list — Lin(src) for backward searches, Lout(src) for
	// forward ones. The PR1 check of insert is one pass over the visited
	// vertex's own list plus O(1) membership probes here.
	fixedSet *stampTable

	// The last minimum-repeat code the dictionary resolved, and its ID: a
	// kernel-BFS issues every insert under one code, so the dictionary is
	// asked once per run rather than once per insert. The dictionary only
	// grows during a build, so the pair stays valid until the build ends.
	knownCode labelseq.Code
	knownID   labelseq.ID

	// Kernel-BFS scratch: stamped visited array over (vertex, phase)
	// slots, and the BFS queue of packed (vertex, phase) pairs.
	visited []uint32
	stamp   uint32
	bfsQ    []kbsNode

	stats BuildStats
}

type kbsNode struct {
	v     graph.Vertex
	phase int32
}

// newBuilder returns the builder of ix, with empty entry lists.
func newBuilder(ix *Index) *builder {
	n := ix.g.NumVertices()
	return &builder{
		ix:         ix,
		g:          ix.g,
		coder:      ix.dict.Coder(),
		k:          ix.k,
		in:         make([][]entry, n),
		out:        make([][]entry, n),
		inByLabel:  newLabelCSR(ix.g, true),
		outByLabel: newLabelCSR(ix.g, false),
		seen:       newStampTable(scratchLogSlots),
		frontierOf: newStampTable(scratchLogSlots),
		member:     newStampTable(scratchLogSlots),
		fixedSet:   newStampTable(scratchLogSlots),
		knownID:    labelseq.InvalidID,
		visited:    make([]uint32, n*ix.k),
	}
}

// scratchLogSlots sizes a fresh scratch table (256 slots); tables double as
// the searches need.
const scratchLogSlots = 8

// labelCSR regroups a CSR adjacency so each vertex's edges sort by
// (label, neighbor) and records where each label's run starts: vertex v has
// one run per distinct label on its edges, runs runOff[v]..runOff[v+1], the
// i-th carrying label runLbl[i] and the neighbors nbr[runAt[i]:runAt[i+1]].
// Runs are contiguous across vertices and runAt ends with a sentinel, so
// "neighbors of v through label l" is a scan of v's few distinct labels and
// no walk over the run itself. The run arrays hold at most one element per
// edge.
type labelCSR struct {
	runOff []int64
	runLbl []labelseq.Label
	runAt  []int64
	nbr    []graph.Vertex
}

func newLabelCSR(g *graph.Graph, backward bool) *labelCSR {
	n := g.NumVertices()
	c := &labelCSR{
		runOff: make([]int64, n+1),
		nbr:    make([]graph.Vertex, g.NumEdges()),
	}
	lbl := make([]labelseq.Label, g.NumEdges())
	pos := 0
	for v := graph.Vertex(0); int(v) < n; v++ {
		var nbrs []graph.Vertex
		var lbls []labelseq.Label
		if backward {
			nbrs, lbls = g.InEdges(v)
		} else {
			nbrs, lbls = g.OutEdges(v)
		}
		end := pos + len(nbrs)
		copy(c.nbr[pos:end], nbrs)
		copy(lbl[pos:end], lbls)
		sortRun(c.nbr[pos:end], lbl[pos:end])
		c.runOff[v] = int64(len(c.runLbl))
		for i := pos; i < end; i++ {
			if i == pos || lbl[i] != lbl[i-1] {
				c.runLbl = append(c.runLbl, lbl[i])
				c.runAt = append(c.runAt, int64(i))
			}
		}
		pos = end
	}
	c.runOff[n] = int64(len(c.runLbl))
	c.runAt = append(c.runAt, int64(pos))
	return c
}

// sortRun sorts the parallel slices by (label, neighbor). High-degree hubs
// make a comparison sort mandatory here.
func sortRun(nbr []graph.Vertex, lbl []labelseq.Label) {
	sort.Sort(&runSorter{nbr: nbr, lbl: lbl})
}

type runSorter struct {
	nbr []graph.Vertex
	lbl []labelseq.Label
}

func (r *runSorter) Len() int { return len(r.nbr) }
func (r *runSorter) Less(i, j int) bool {
	if r.lbl[i] != r.lbl[j] {
		return r.lbl[i] < r.lbl[j]
	}
	return r.nbr[i] < r.nbr[j]
}
func (r *runSorter) Swap(i, j int) {
	r.nbr[i], r.nbr[j] = r.nbr[j], r.nbr[i]
	r.lbl[i], r.lbl[j] = r.lbl[j], r.lbl[i]
}

// edges returns the neighbors of v through label l: a linear scan of v's
// ascending run labels — a vertex rarely has more than a handful — on the
// kernel-BFS hot path, once per dequeued node.
//
//rlc:noalloc
func (c *labelCSR) edges(v graph.Vertex, l labelseq.Label) []graph.Vertex {
	for i, end := c.runOff[v], c.runOff[v+1]; i < end; i++ {
		if c.runLbl[i] >= l {
			if c.runLbl[i] == l {
				return c.nbr[c.runAt[i]:c.runAt[i+1]]
			}
			break
		}
	}
	return nil
}

// kbs runs one kernel-based search from src: the kernel-search phase
// enumerates every path of length <= k touching src on the given side,
// inserting entries and registering kernel candidates; the kernel-BFS phase
// then extends each candidate under its Kleene plus.
func (b *builder) kbs(src graph.Vertex, dir direction) {
	b.loadFixedSet(src, dir)
	b.kernelSearch(src, dir)

	// Kernels run in ascending code order, whatever order the search met
	// them in. The registry's slot numbers die with this sort; nothing
	// reads frontierOf or member until the next kernelSearch resets them.
	slices.SortFunc(b.frontiers, frontierByCode)
	for i := range b.frontiers {
		b.kernelBFS(src, dir, &b.frontiers[i])
	}
}

func frontierByCode(x, y kernelFrontier) int { return cmp.Compare(x.code, y.code) }

// loadFixedSet snapshots the fixed side of every PR1 query the KBS issues:
// Lin(src) for backward searches, Lout(src) for forward ones. Neither list
// changes while the KBS runs, so (mr, hub) membership is captured once.
func (b *builder) loadFixedSet(src graph.Vertex, dir direction) {
	b.fixedSet.reset()
	var fixed []entry
	if dir == backward {
		fixed = b.in[src]
	} else {
		fixed = b.out[src]
	}
	for _, e := range fixed {
		b.fixedSet.put(fixedKey(e.mr, e.hub), 0, 0)
	}
}

// kernelSearch is phase 1: a BFS over (vertex, label-sequence) states up to
// depth k. Every state visit attempts an insert (whose outcome is ignored
// here — PR3 applies only to kernel-BFS) and registers the endpoint as a
// frontier vertex of the state's minimum repeat.
func (b *builder) kernelSearch(src graph.Vertex, dir direction) {
	b.seen.reset()
	b.frontierOf.reset()
	b.member.reset()
	b.frontiers = b.frontiers[:0]
	b.queue = b.queue[:0]

	b.queue = append(b.queue, searchState{v: src})
	b.seen.put(0, uint32(src), 0)

	for head := 0; head < len(b.queue); head++ {
		// Index rather than copy: states are small but the queue grows
		// while iterating.
		st := b.queue[head]
		var nbrs []graph.Vertex
		var lbls []labelseq.Label
		if dir == backward {
			nbrs, lbls = b.g.InEdges(st.v)
		} else {
			nbrs, lbls = b.g.OutEdges(st.v)
		}
		for i := range nbrs {
			y, l := nbrs[i], lbls[i]
			var next searchState
			next.v = y
			next.depth = st.depth + 1
			if dir == backward {
				// Path y -> src: the new edge label is prepended.
				next.seq[0] = l
				copy(next.seq[1:], st.seq[:st.depth])
				next.code = b.coder.Prepend(st.code, l, int(st.depth))
			} else {
				// Path src -> y: appended.
				copy(next.seq[:], st.seq[:st.depth])
				next.seq[st.depth] = l
				next.code = b.coder.Append(st.code, l)
			}
			if _, dup := b.seen.put(uint64(next.code), uint32(y), 0); dup {
				continue
			}
			b.stats.KernelSearchStates++

			// MinimumRepeat returns a slice of its argument, and insert
			// and registerFrontier keep it across calls the compiler
			// cannot see through: slice the builder's copy, not next.
			n := copy(b.seqBuf[:], next.seq[:next.depth])
			mr := labelseq.MinimumRepeat(b.seqBuf[:n])
			mrCode := b.coder.Encode(mr)
			// Insert outcome deliberately ignored in phase 1.
			b.insert(y, src, dir, mr, mrCode)
			b.registerFrontier(mrCode, mr, y)

			if int(next.depth) < b.k {
				b.queue = append(b.queue, next)
			}
		}
	}
}

// registerFrontier adds v to the frontier of the kernel with the given code,
// opening the kernel's slot on first sight. A slot past len(frontiers) but
// within its capacity is an earlier KBS's: its slices are reused.
//
//rlc:noalloc
func (b *builder) registerFrontier(code labelseq.Code, kernel labelseq.Seq, v graph.Vertex) {
	slot, known := b.frontierOf.put(uint64(code), 0, int32(len(b.frontiers)))
	if !known {
		if len(b.frontiers) < cap(b.frontiers) {
			b.frontiers = b.frontiers[:slot+1]
		} else {
			//rlc:allocok the registry grows to the most kernels any one KBS met
			b.frontiers = append(b.frontiers, kernelFrontier{})
		}
		f := &b.frontiers[slot]
		f.code = code
		//rlc:allocok a recycled slot's kernel already has capacity for k labels
		f.kernel = append(f.kernel[:0], kernel...)
		f.verts = f.verts[:0]
	}
	if _, dup := b.member.put(uint64(slot), uint32(v), 0); dup {
		return
	}
	f := &b.frontiers[slot]
	//rlc:allocok verts grows to the largest frontier its slot has held
	f.verts = append(f.verts, v)
}

// kernelBFS is phase 2: starting from the frontier vertices of one kernel
// candidate L (each the endpoint of an exact L-power path), walk the graph
// under the constraint L+. The phase of a node is the number of labels
// consumed in the current period; completing a period (phase back to 0)
// attempts an insert, and — PR3 — a pruned insert stops expansion there.
//
//rlc:noalloc
func (b *builder) kernelBFS(src graph.Vertex, dir direction, f *kernelFrontier) {
	m := int32(len(f.kernel))
	b.stamp++
	if b.stamp == 0 {
		for i := range b.visited {
			b.visited[i] = 0
		}
		b.stamp = 1
	}
	b.bfsQ = b.bfsQ[:0]
	for _, v := range f.verts {
		b.mark(v, 0)
		//rlc:allocok the queue grows to the largest kernel-BFS so far
		b.bfsQ = append(b.bfsQ, kbsNode{v, 0})
	}
	mrCode := f.code
	b.stats.KernelBFSRuns++

	for head := 0; head < len(b.bfsQ); head++ {
		b.stats.KernelBFSNodes++
		nd := b.bfsQ[head]
		var expected labelseq.Label
		if dir == backward {
			// Walking backward from a power boundary consumes the
			// kernel's labels last-to-first.
			expected = f.kernel[m-1-nd.phase]
		} else {
			expected = f.kernel[nd.phase]
		}
		var nbrs []graph.Vertex
		if dir == backward {
			nbrs = b.inByLabel.edges(nd.v, expected)
		} else {
			nbrs = b.outByLabel.edges(nd.v, expected)
		}
		next := (nd.phase + 1) % m
		for i := range nbrs {
			y := nbrs[i]
			if b.isMarked(y, next) {
				continue
			}
			if next == 0 {
				// y sits at a completed power L^m: record it.
				//rlc:allocok a successful insert appends to y's entry list (and interns a new MR)
				st := b.insert(y, src, dir, f.kernel, mrCode)
				b.mark(y, 0)
				if st != inserted && !b.ix.opts.DisablePR3 {
					// PR3: y and everything beyond it are skipped.
					continue
				}
				//rlc:allocok queue growth, as above
				b.bfsQ = append(b.bfsQ, kbsNode{y, 0})
				continue
			}
			b.mark(y, next)
			//rlc:allocok queue growth, as above
			b.bfsQ = append(b.bfsQ, kbsNode{y, next})
		}
	}
}

func (b *builder) mark(v graph.Vertex, phase int32) {
	b.visited[int(v)*b.k+int(phase)] = b.stamp
}

func (b *builder) isMarked(v graph.Vertex, phase int32) bool {
	return b.visited[int(v)*b.k+int(phase)] == b.stamp
}

func fixedKey(mr labelseq.ID, hub int32) uint64 {
	return uint64(mr)<<32 | uint64(uint32(hub))
}

// insert is insertCore plus the outcome counters.
func (b *builder) insert(y, src graph.Vertex, dir direction, mr labelseq.Seq, mrCode labelseq.Code) insertStatus {
	st := b.insertCore(y, src, dir, mr, mrCode)
	switch st {
	case inserted:
		b.stats.Inserted++
	case prunedPR1:
		b.stats.PrunedPR1++
	case prunedPR2:
		b.stats.PrunedPR2++
	case prunedDup:
		b.stats.PrunedDup++
	}
	return st
}

// insertCore attempts to record that y and src are connected by a path whose
// k-MR is mr: backward searches add (src, mr) to Lout(y); forward searches
// add (src, mr) to Lin(y). Pruning rules PR1 and PR2 run first.
//
// The PR1 check is algebraically Query(y, src, mr+) (backward) or
// Query(src, y, mr+) (forward) on the current snapshot, evaluated here as
// one pass over y's own list plus fixedSet membership tests: Case 2 on the
// fixed side is (mr, rank(y)) ∈ fixedSet; Case 2 on y's side is an entry
// with hub rank(src); Case 1 is an entry of y whose (mr, hub) also sits in
// fixedSet.
func (b *builder) insertCore(y, src graph.Vertex, dir direction, mr labelseq.Seq, mrCode labelseq.Code) insertStatus {
	ix := b.ix
	// PR2: skip entries at vertices with a strictly smaller rank than the
	// search source — their own earlier searches covered this pair.
	if !ix.opts.DisablePR2 && ix.rank[src] > ix.rank[y] {
		return prunedPR2
	}

	var yList []entry
	if dir == backward {
		yList = b.out[y]
	} else {
		yList = b.in[y]
	}

	id := b.lookupCode(mrCode)
	if id != labelseq.InvalidID {
		if !ix.opts.DisablePR1 {
			// PR1: already answerable from the current snapshot.
			if _, ok := b.fixedSet.get(fixedKey(id, ix.rank[y]), 0); ok {
				return prunedPR1
			}
			rankSrc := ix.rank[src]
			for _, e := range yList {
				if e.mr != id {
					continue
				}
				if e.hub == rankSrc {
					return prunedPR1
				}
				if _, ok := b.fixedSet.get(fixedKey(id, e.hub), 0); ok {
					return prunedPR1
				}
			}
		} else {
			// Without PR1 still refuse exact duplicates, otherwise
			// entry lists would grow unboundedly within one search.
			if hasEntry(yList, ix.rank[src], id) {
				return prunedDup
			}
		}
	}
	if id == labelseq.InvalidID {
		id = ix.dict.InternCode(mrCode, mr)
		b.knownCode, b.knownID = mrCode, id
	}
	e := entry{hub: ix.rank[src], mr: id}
	if dir == backward {
		b.out[y] = append(b.out[y], e)
	} else {
		b.in[y] = append(b.in[y], e)
	}
	return inserted
}

// lookupCode resolves a packed minimum-repeat code to its interned ID,
// answering repeats of the last resolved code from knownCode/knownID.
func (b *builder) lookupCode(code labelseq.Code) labelseq.ID {
	if code == b.knownCode && b.knownID != labelseq.InvalidID {
		return b.knownID
	}
	id := b.ix.dict.LookupCode(code)
	if id != labelseq.InvalidID {
		b.knownCode, b.knownID = code, id
	}
	return id
}
