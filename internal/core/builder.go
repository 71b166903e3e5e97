package core

import (
	"cmp"
	"slices"
	"sort"

	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// The builder runs Algorithm 2 in access-rank space: every vertex it holds —
// search states, frontiers, entry lists, visited marks — is a rank r, the
// vertex ix.order[r]. Relabelling the adjacency once (newRankCSR) makes PR2
// an id compare, turns the hubs of the fixed PR1 side into array indices,
// and sorts each label run by rank, so kernel BFS can skip the neighbours
// PR2 rejects without looking at them (labelCSR.edgesFrom).

// searchState is a kernel-search BFS state: a vertex plus the packed code
// of the label sequence of the path between it and the KBS source (read in
// path order). The code deduplicates states and keys the MR memo; the
// labels themselves are never needed (minRepeat decodes a code on its first
// sight).
type searchState struct {
	code  labelseq.Code
	v     int32
	depth int32
}

// kernelFrontier collects the frontier vertices of one kernel candidate, in
// the order the kernel search met them. A vertex is listed once — it is
// listed only if its insert succeeded, and Case 2 of PR1 rejects its later
// inserts of the same kernel. The kernel is the memo slot mr, whose code is
// code. The builder recycles these (and their vertex slices) from one KBS to
// the next.
type kernelFrontier struct {
	code  labelseq.Code
	mr    int32
	verts []int32
}

// mrMemo is a minimum repeat the build has met: its labels, its code, and
// its dictionary ID once an insert interned it (InvalidID until then).
type mrMemo struct {
	seq  labelseq.Seq
	code labelseq.Code
	id   labelseq.ID
}

// builder holds the reusable scratch space for all KBS runs of one Build,
// plus the mutable per-vertex entry lists that insert appends to. The lists
// stay per-vertex during construction (cheap appends, no shifting); seal
// packs them into hub-sorted groups once the last KBS finished.
type builder struct {
	ix    *Index
	coder *labelseq.Coder
	k     int

	// Mutable Lout/Lin under construction, indexed by side, then rank.
	lists [2][][]entry

	// The adjacency a KBS filling side d walks — in-edges for Lout, as a
	// backward search follows paths y ⇝ src, out-edges for Lin — in rank
	// space, twice: in the graph's own edge order for the kernel search (so
	// states are visited and MRs interned in the graph's order), and
	// regrouped into label runs for kernel BFS, which follows edges of one
	// expected label at a time.
	adj  [2]*rankCSR
	runs [2]*labelCSR

	// Kernel-search scratch: the BFS queue and the (code, vertex) states
	// already visited.
	queue []searchState
	seen  *stampTable

	// The MR memo, build-wide: mrOf maps a state's code to the slot in mrs
	// of its sequence's minimum repeat. An MR depends on the label sequence
	// alone, and a code paired with its depth is a bijection with that
	// sequence, so MinimumRepeat and Encode run once per distinct sequence
	// a build meets (the serving graph's build meets 72) and the dictionary
	// is asked for an MR's ID until it has one.
	mrOf *stampTable
	mrs  []mrMemo

	// Frontier registry for the current KBS: frontierOf maps a kernel's
	// code to its slot in frontiers. kbs sorts frontiers by code once the
	// kernel search is over and the slots no longer matter.
	frontiers  []kernelFrontier
	frontierOf *stampTable

	// The fixed side of every PR1 check the current KBS makes: src's list
	// on the side the KBS does not fill, hub-sorted. fixedAt holds, per hub
	// rank, the stamp of the last KBS whose fixed list has that hub and the
	// hub's first position in it; 2n searches never wrap the stamp.
	fixed    []entry
	fixedAt  []fixedHub
	kbsStamp uint32

	// Kernel-BFS scratch: stamped visited array over (vertex, phase)
	// slots, and the BFS queue of packed (vertex, phase) pairs.
	visited []uint32
	stamp   uint32
	bfsQ    []kbsNode

	stats BuildStats
}

type kbsNode struct {
	v     int32
	phase int32
}

type fixedHub struct {
	stamp uint32
	at    int32
}

// newBuilder returns the builder of ix, with empty entry lists.
func newBuilder(ix *Index) *builder {
	n := ix.g.NumVertices()
	b := &builder{
		ix:         ix,
		coder:      ix.dict.Coder(),
		k:          ix.k,
		seen:       newStampTable(scratchLogSlots),
		frontierOf: newStampTable(scratchLogSlots),
		mrOf:       newStampTable(scratchLogSlots),
		fixedAt:    make([]fixedHub, n),
		visited:    make([]uint32, n*ix.k),
	}
	for _, d := range sides {
		b.lists[d] = make([][]entry, n)
		b.adj[d] = newRankCSR(ix, d)
		b.runs[d] = newLabelCSR(b.adj[d])
	}
	return b
}

// scratchLogSlots sizes a fresh scratch table (256 slots); tables double as
// the searches need.
const scratchLogSlots = 8

// rankCSR is one side's adjacency of the graph relabelled into rank
// space: rank r's edges are nbr[off[r]:off[r+1]] with labels lbl[...], in
// the order the graph stores the edges of ix.order[r], every neighbour
// written as its rank.
type rankCSR struct {
	off []int64
	nbr []int32
	lbl []labelseq.Label
}

// newRankCSR relabels the edges a KBS filling side d walks — the in-edges
// of ix.g for Lout, the out-edges for Lin — into rank space. It is the one
// place the builder reads ix.rank.
func newRankCSR(ix *Index, d side) *rankCSR {
	g := ix.g
	n, m := g.NumVertices(), g.NumEdges()
	c := &rankCSR{
		off: make([]int64, n+1),
		nbr: make([]int32, 0, m),
		lbl: make([]labelseq.Label, 0, m),
	}
	edges := g.OutEdges
	if d == lout {
		edges = g.InEdges
	}
	for r, v := range ix.order {
		nbrs, lbls := edges(v)
		for _, y := range nbrs {
			c.nbr = append(c.nbr, ix.rank[y])
		}
		c.lbl = append(c.lbl, lbls...)
		c.off[r+1] = int64(len(c.nbr))
	}
	return c
}

// edges returns the neighbours of v and the labels of the edges to them.
func (c *rankCSR) edges(v int32) ([]int32, []labelseq.Label) {
	lo, hi := c.off[v], c.off[v+1]
	return c.nbr[lo:hi], c.lbl[lo:hi]
}

// labelCSR regroups a rankCSR so each vertex's edges sort by (label,
// neighbour) and records where each label's run starts: vertex v has one
// run per distinct label on its edges, runs runOff[v]..runOff[v+1], the
// i-th carrying label runLbl[i] and the neighbours nbr[runAt[i]:runAt[i+1]].
// Runs are contiguous across vertices and runAt ends with a sentinel, so
// "neighbours of v through label l" is a scan of v's few distinct labels and
// no walk over the run itself. cur[i] is run i's cursor for edgesFrom. The
// run arrays hold at most one element per edge.
type labelCSR struct {
	runOff []int64
	runLbl []labelseq.Label
	runAt  []int64
	cur    []int64
	nbr    []int32
}

func newLabelCSR(a *rankCSR) *labelCSR {
	n := len(a.off) - 1
	c := &labelCSR{
		runOff: make([]int64, n+1),
		nbr:    slices.Clone(a.nbr),
	}
	lbl := slices.Clone(a.lbl)
	for v := 0; v < n; v++ {
		pos, end := a.off[v], a.off[v+1]
		sortRun(c.nbr[pos:end], lbl[pos:end])
		c.runOff[v] = int64(len(c.runLbl))
		for i := pos; i < end; i++ {
			if i == pos || lbl[i] != lbl[i-1] {
				c.runLbl = append(c.runLbl, lbl[i])
				c.runAt = append(c.runAt, i)
			}
		}
	}
	c.runOff[n] = int64(len(c.runLbl))
	c.runAt = append(c.runAt, int64(len(c.nbr)))
	c.cur = slices.Clone(c.runAt[:len(c.runLbl)])
	return c
}

// sortRun sorts the parallel slices by (label, neighbour). High-degree hubs
// make a comparison sort mandatory here.
func sortRun(nbr []int32, lbl []labelseq.Label) {
	sort.Sort(&runSorter{nbr: nbr, lbl: lbl})
}

type runSorter struct {
	nbr []int32
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

// run returns the index of v's run through label l, or -1: a linear scan
// of v's ascending run labels — a vertex rarely has more than a handful —
// on the kernel-BFS hot path, once per dequeued node.
func (c *labelCSR) run(v int32, l labelseq.Label) int64 {
	for i, end := c.runOff[v], c.runOff[v+1]; i < end; i++ {
		if c.runLbl[i] >= l {
			if c.runLbl[i] == l {
				return i
			}
			break
		}
	}
	return -1
}

// edges returns the neighbours of v through label l.
func (c *labelCSR) edges(v int32, l labelseq.Label) []int32 {
	i := c.run(v, l)
	if i < 0 {
		return nil
	}
	return c.nbr[c.runAt[i]:c.runAt[i+1]]
}

// edgesFrom returns the neighbours of v through label l ranked at or after
// src: the run's suffix from its cursor, which it first moves past the
// smaller ranks. A cursor only moves forward, so src must never decrease
// from one call to the next — Build's sources run in rank order.
func (c *labelCSR) edgesFrom(v int32, l labelseq.Label, src int32) []int32 {
	i := c.run(v, l)
	if i < 0 {
		return nil
	}
	at, end := c.cur[i], c.runAt[i+1]
	for at < end && c.nbr[at] < src {
		at++
	}
	c.cur[i] = at
	return c.nbr[at:end]
}

// kbs runs one kernel-based search from src that fills side d: a backward
// search (Lout, paths y ⇝ src) or a forward one (Lin, src ⇝ y). The
// kernel-search phase enumerates every path of length <= k touching src,
// inserting entries and registering kernel candidates; the kernel-BFS phase
// then extends each candidate under its Kleene plus. It takes three
// shortcuts past Algorithm 2 as stated (BuildReference); each changes
// counters, never an entry or the order entries are inserted in, and the
// tests check that Build writes BuildReference's bytes.
//
// PR3 reaches into the kernel search: a vertex y whose kernel-search insert
// of (src, L) was rejected seeds no kernel BFS of L. The rejection has one
// of four witnesses:
//   - PR1, Case 1 or Case 2 on the fixed side: a hub h ranked before src
//     with y ⇝ h ⇝ src under L+ (h = y in the second case);
//   - PR2: y itself is ranked before src, and y ⇝ src spells L;
//   - Case 2 on y's own list: (src, L) is already at y, put there by an
//     earlier state of this kernel search, which registered y then;
//   - y is src (forward only: the backward KBS recorded a cycle src ⇝ src
//     under L+): every vertex one period past src is a kernel-search
//     state of L too, and seeds or not on its own outcome.
//
// In the first two cases every period boundary z a BFS from y could reach
// has z ⇝ y ⇝ src (forward: src ⇝ y ⇝ z) under L+ through a boundary
// ranked before src — the pairs PR1 and PR3 already rely on the partial
// index answering — so that BFS could only make rejected attempts. An
// attempt's outcome at z depends on z's list and the fixed list alone, and
// no boundary an accepted seed reaches is lost, so the same entries are
// inserted in the same order: only KernelBFSRuns, KernelBFSNodes and
// PrunedPR1 fall. A rejected y a BFS meets later is attempted again and,
// the index only growing, rejected again.
//
// A kernel-search state whose vertex y is ranked before src touches
// nothing but the counters: PR2 rejects its insert, so it adds no entry and
// interns no MR, and it then registers no frontier. A depth-k state is not
// enqueued either, so the kernel search drops it before its seen probe.
// Its (code, y) key cannot stand in for another state's, because codes are
// unique across lengths: every state with that code is a depth-k leaf
// ranked before src too, never an inner one. Only KernelSearchStates and
// PrunedPR2 fall, by the same amount. An inner state ranked before src is
// still deduplicated and enqueued — paths through it may end at or after
// src — and counted as PR2, but its MR is never computed.
//
// A kernel-BFS step that completes a period follows only the neighbours
// ranked at or after src: PR2 would reject the others and PR3 then not
// expand them, so only PrunedPR2 falls.
func (b *builder) kbs(src int32, d side) {
	b.loadFixed(src, d)
	b.kernelSearch(src, d)

	// Kernels run in ascending code order, whatever order the search met
	// them in. The registry's slot numbers die with this sort; nothing
	// reads frontierOf until the next kernelSearch resets it.
	slices.SortFunc(b.frontiers, frontierByCode)
	for i := range b.frontiers {
		b.kernelBFS(src, d, &b.frontiers[i])
	}
}

func frontierByCode(x, y kernelFrontier) int { return cmp.Compare(x.code, y.code) }

// loadFixed points the PR1 checks of the KBS at their fixed side: src's
// list on the side the KBS does not fill (Lin(src) for a backward search,
// Lout(src) for a forward one). It does not change while the KBS runs, and
// it is hub-sorted, so one pass records where each hub's entries start.
func (b *builder) loadFixed(src int32, d side) {
	b.kbsStamp++
	b.fixed = b.lists[d.other()][src]
	for i, e := range b.fixed {
		if h := &b.fixedAt[e.hub]; h.stamp != b.kbsStamp {
			*h = fixedHub{stamp: b.kbsStamp, at: int32(i)}
		}
	}
}

// fixedHas reports whether the fixed list holds (hub, mr).
func (b *builder) fixedHas(hub int32, mr labelseq.ID) bool {
	h := b.fixedAt[hub]
	if h.stamp != b.kbsStamp {
		return false
	}
	for _, e := range b.fixed[h.at:] {
		if e.hub != hub {
			return false
		}
		if e.mr == mr {
			return true
		}
	}
	return false
}

// kernelSearch is phase 1: a BFS over (vertex, label-sequence) states up to
// depth k. Every state visit attempts an insert and, if that insert
// succeeded, registers the endpoint as a frontier vertex of the state's
// minimum repeat. The search itself never stops on a rejection: its states
// are paths of at most k labels, not L-powers. States ranked before src are
// cut short as kbs describes.
func (b *builder) kernelSearch(src int32, d side) {
	b.seen.reset()
	b.frontierOf.reset()
	b.frontiers = b.frontiers[:0]
	b.queue = b.queue[:0]
	adj := b.adj[d]

	b.queue = append(b.queue, searchState{v: src})
	b.seen.put(0, uint32(src), 0)

	for head := 0; head < len(b.queue); head++ {
		st := b.queue[head]
		leaf := int(st.depth)+1 == b.k
		nbrs, lbls := adj.edges(st.v)
		for i := range nbrs {
			y, l := nbrs[i], lbls[i]
			if leaf && y < src {
				continue
			}
			next := searchState{v: y, depth: st.depth + 1}
			if d == lout {
				// Path y -> src: the new edge label is prepended.
				next.code = b.coder.Prepend(st.code, l, int(st.depth))
			} else {
				// Path src -> y: appended.
				next.code = b.coder.Append(st.code, l)
			}
			if _, dup := b.seen.put(uint64(next.code), uint32(y), 0); dup {
				continue
			}
			b.stats.KernelSearchStates++

			if y < src {
				b.stats.PrunedPR2++
			} else if mr := b.minRepeat(next.code, next.depth); b.insert(y, src, d, mr) {
				b.registerFrontier(mr, y)
			}

			if !leaf {
				b.queue = append(b.queue, next)
			}
		}
	}
}

// minRepeat returns the memo slot of the minimum repeat of the sequence of
// the given code and length, filling the slot on the code's first sight.
func (b *builder) minRepeat(code labelseq.Code, length int32) int32 {
	slot, known := b.mrOf.put(uint64(code), 0, int32(len(b.mrs)))
	if !known {
		// one decoded sequence per distinct code of the build
		mr := labelseq.MinimumRepeat(b.coder.Decode(code, int(length)))
		b.mrs = append(b.mrs, mrMemo{seq: mr, code: b.coder.Encode(mr), id: labelseq.InvalidID})
	}
	return slot
}

// registerFrontier adds v to the frontier of the kernel in memo slot mr,
// opening the kernel's registry slot on first sight. A registry slot past
// len(frontiers) but within its capacity is an earlier KBS's: its vertex
// slice is reused.
func (b *builder) registerFrontier(mr int32, v int32) {
	code := b.mrs[mr].code
	slot, known := b.frontierOf.put(uint64(code), 0, int32(len(b.frontiers)))
	if !known {
		if len(b.frontiers) < cap(b.frontiers) {
			b.frontiers = b.frontiers[:slot+1]
		} else {
			// the registry grows to the most kernels any one KBS met
			b.frontiers = append(b.frontiers, kernelFrontier{})
		}
		f := &b.frontiers[slot]
		f.code, f.mr = code, mr
		f.verts = f.verts[:0]
	}
	f := &b.frontiers[slot]
	// verts grows to the largest frontier its slot has held
	f.verts = append(f.verts, v)
}

// kernelBFS is phase 2: starting from the frontier vertices of one kernel
// candidate L (each the endpoint of an exact L-power path), walk the graph
// under the constraint L+. The phase of a node is the number of labels
// consumed in the current period; completing a period (phase back to 0)
// attempts an insert at the neighbours ranked at or after src, and — PR3 —
// a pruned insert stops expansion there.
func (b *builder) kernelBFS(src int32, d side, f *kernelFrontier) {
	kernel := b.mrs[f.mr].seq
	m := int32(len(kernel))
	b.stamp++
	if b.stamp == 0 {
		for i := range b.visited {
			b.visited[i] = 0
		}
		b.stamp = 1
	}
	b.bfsQ = b.bfsQ[:0]
	for _, v := range f.verts {
		if b.isMarked(v, 0) {
			continue
		}
		b.mark(v, 0)
		// the queue grows to the largest kernel-BFS so far
		b.bfsQ = append(b.bfsQ, kbsNode{v, 0})
	}
	runs := b.runs[d]
	b.stats.KernelBFSRuns++

	for head := 0; head < len(b.bfsQ); head++ {
		b.stats.KernelBFSNodes++
		nd := b.bfsQ[head]
		var expected labelseq.Label
		if d == lout {
			// Walking backward from a power boundary consumes the
			// kernel's labels last-to-first.
			expected = kernel[m-1-nd.phase]
		} else {
			expected = kernel[nd.phase]
		}
		next := nd.phase + 1
		if next == m {
			next = 0
		}
		var nbrs []int32
		if next == 0 {
			nbrs = runs.edgesFrom(nd.v, expected, src)
		} else {
			nbrs = runs.edges(nd.v, expected)
		}
		for i := range nbrs {
			y := nbrs[i]
			if b.isMarked(y, next) {
				continue
			}
			if next == 0 {
				// y sits at a completed power L^m: record it.
				// a successful insert appends to y's entry list (and interns a new MR)
				ok := b.insert(y, src, d, f.mr)
				b.mark(y, 0)
				if !ok {
					// PR3: y and everything beyond it are skipped.
					continue
				}
				b.bfsQ = append(b.bfsQ, kbsNode{y, 0})
				continue
			}
			b.mark(y, next)
			b.bfsQ = append(b.bfsQ, kbsNode{y, next})
		}
	}
}

func (b *builder) mark(v, phase int32) {
	b.visited[int(v)*b.k+int(phase)] = b.stamp
}

func (b *builder) isMarked(v, phase int32) bool {
	return b.visited[int(v)*b.k+int(phase)] == b.stamp
}

// insert is insertCore plus the outcome counters.
func (b *builder) insert(y, src int32, d side, mr int32) bool {
	ok := b.insertCore(y, src, d, mr)
	if ok {
		b.stats.Inserted++
	} else {
		b.stats.PrunedPR1++
	}
	return ok
}

// insertCore attempts to record that y and src are connected by a path whose
// k-MR is the one in memo slot mr: it adds (src, mr) to y's side-d list —
// Lout(y) in a backward search, Lin(y) in a forward one. It reports whether it
// did; PR1 runs first. y is never ranked before src: the callers leave
// those to PR2 (see kbs).
//
// The PR1 check is algebraically Query(y, src, mr+) (backward) or
// Query(src, y, mr+) (forward) on the current snapshot, evaluated here as
// one pass over y's own list plus probes of the fixed list: Case 2 on the
// fixed side is (y, mr) in the fixed list — only possible when y <= src, as
// no hub past src has searched yet; Case 2 on y's side is an entry with hub
// src; Case 1 is an entry of y whose (hub, mr) the fixed list also holds.
func (b *builder) insertCore(y, src int32, d side, mr int32) bool {
	ix := b.ix
	yList := b.lists[d][y]

	m := &b.mrs[mr]
	if m.id == labelseq.InvalidID {
		// The memo learns an ID here, from whichever code's insert
		// interned the MR; until then no entry can hold it.
		m.id = ix.dict.LookupCode(m.code)
	}
	if id := m.id; id != labelseq.InvalidID {
		// PR1: already answerable from the current snapshot.
		if y <= src && b.fixedHas(y, id) {
			return false
		}
		for _, e := range yList {
			if e.mr == id && (e.hub == src || b.fixedHas(e.hub, id)) {
				return false
			}
		}
	} else {
		m.id = ix.dict.InternCode(m.code, m.seq)
	}
	b.lists[d][y] = append(yList, entry{hub: src, mr: m.id})
	return true
}
