// Deterministic parallel index construction.
//
// Algorithm 2 is inherently order-dependent: the KBS pair of each vertex
// reads entry lists written by every earlier vertex (the PR1/dup checks),
// and insert outcomes steer the kernel-BFS itself (PR3). The parallel build
// therefore uses optimistic speculation with sequential commit:
//
//  1. Workers run the backward+forward KBS pair of the next `window`
//     uncommitted vertices (in rank order) concurrently against a snapshot
//     — the canonical lists as committed by earlier rounds — buffering
//     successful inserts in worker-local state and recording every
//     (vertex, side) entry list the trajectory read.
//  2. The committer then advances the commit frontier in strict rank
//     order. A speculation whose recorded reads were all untouched since
//     its snapshot followed the exact trajectory the sequential build
//     would have taken, so its buffered inserts are replayed onto the live
//     index (re-running the full PR1/PR2/dup checks, see commit.go). The
//     first stale speculation stops the round: it is thrown away and
//     re-speculated next round, where it sits at the commit frontier —
//     nothing can commit before it — so the retry always validates and
//     the expensive KBS work stays on the worker pool. Only a speculation
//     that fails twice falls back to a sequential re-run at its commit
//     slot; speculations beyond the stop point are kept and re-validated
//     when the frontier reaches them.
//
// Every commit path reproduces the sequential insert sequence exactly — by
// induction over commit slots the entry lists, the dictionary interning
// order, and hence the packed groups and the WriteSnapshot bytes are
// byte-identical to the sequential build for every worker count. Worker
// timing can never leak into the result: it only shifts which speculations
// happen to be wasted.
//
// The window adapts deterministically to the observed conflict rate: the
// high-degree vertices at the front of the rank order write entries all
// over the graph (speculating far past them is mostly wasted), while the
// low-degree tail almost never conflicts.
package core

import (
	"sync"
	"sync/atomic"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// maxWindowPerWorker caps how far ahead of the committed index the workers
// may speculate: staleness grows with the window, and with it the fraction
// of speculations invalidated at commit time.
const maxWindowPerWorker = 64

// specInsert is one buffered successful insert of a speculation, in
// trajectory order. The minimum repeat is stored as a slice of the
// result's shared arena (mrOff/mrLen) so replay can re-intern it without
// decoding; mrID is the ID the speculation resolved (interned, or
// provisional for codes unknown at snapshot time) and is only meaningful
// for comparisons within the same speculation.
type specInsert struct {
	y      graph.Vertex
	mrOff  int32
	mrID   labelseq.ID
	mrCode labelseq.Code
	mrLen  uint8
	dir    direction
}

// specResult is the outcome of one vertex's speculative KBS pair: the reads
// to validate, the inserts to replay, and the trajectory's counters.
type specResult struct {
	v       graph.Vertex
	reads   []uint64 // packed (vertex << 1 | side), deduplicated
	inserts []specInsert
	arena   []labelseq.Label // backing store for the inserts' minimum repeats
	stats   BuildStats
}

// specScratch is the per-worker speculation state. The stamped n-sized
// arrays are reused across all speculations of the worker (bumping the
// stamp invalidates them in O(1)); the cur slices are handed off to the
// scheduler per speculation.
type specScratch struct {
	stamp uint32

	// Read dedup: (vertex, side) pairs already recorded this speculation.
	readSeenOut []uint32
	readSeenIn  []uint32

	// Overlay index over cur.inserts: for each (vertex, side), the chain
	// of buffered inserts targeting that list. ovHead holds the latest
	// insert index (valid only under the current stamp), ovNext the
	// previous one per insert.
	ovStampOut []uint32
	ovStampIn  []uint32
	ovHeadOut  []int32
	ovHeadIn   []int32
	ovNext     []int32

	// Provisional interning of minimum repeats unknown to the dictionary
	// snapshot: IDs from dictBase upward, in first-encounter order.
	shadow   map[labelseq.Code]labelseq.ID
	dictBase labelseq.ID

	cur specResult
}

func newSpecScratch(n int) *specScratch {
	return &specScratch{
		readSeenOut: make([]uint32, n),
		readSeenIn:  make([]uint32, n),
		ovStampOut:  make([]uint32, n),
		ovStampIn:   make([]uint32, n),
		ovHeadOut:   make([]int32, n),
		ovHeadIn:    make([]int32, n),
		shadow:      make(map[labelseq.Code]labelseq.ID),
	}
}

// reset prepares the scratch for the next speculation. dictLen is the
// frozen dictionary length of the current round.
func (sc *specScratch) reset(dictLen int) {
	sc.stamp++
	if sc.stamp == 0 {
		clear(sc.readSeenOut)
		clear(sc.readSeenIn)
		clear(sc.ovStampOut)
		clear(sc.ovStampIn)
		sc.stamp = 1
	}
	clear(sc.shadow)
	sc.dictBase = labelseq.ID(dictLen)
	sc.ovNext = sc.ovNext[:0]
	sc.cur = specResult{}
}

// recordRead notes that the speculation's trajectory depends on the current
// contents of one entry list.
func (sc *specScratch) recordRead(v graph.Vertex, s side) {
	seen := sc.readSeenOut
	if s == inSide {
		seen = sc.readSeenIn
	}
	if seen[v] == sc.stamp {
		return
	}
	seen[v] = sc.stamp
	sc.cur.reads = append(sc.cur.reads, uint64(uint32(v))<<1|uint64(s))
}

// overlayHead returns the index (into cur.inserts) of the latest buffered
// insert targeting (v, s), or -1.
func (sc *specScratch) overlayHead(v graph.Vertex, s side) int32 {
	if s == outSide {
		if sc.ovStampOut[v] != sc.stamp {
			return -1
		}
		return sc.ovHeadOut[v]
	}
	if sc.ovStampIn[v] != sc.stamp {
		return -1
	}
	return sc.ovHeadIn[v]
}

// overlayHas reports whether a buffered insert already targets (v, s) with
// the given minimum repeat.
func (sc *specScratch) overlayHas(v graph.Vertex, s side, id labelseq.ID) bool {
	for idx := sc.overlayHead(v, s); idx >= 0; idx = sc.ovNext[idx] {
		if sc.cur.inserts[idx].mrID == id {
			return true
		}
	}
	return false
}

// bufferInsert records a successful speculative insert: the minimum repeat
// goes into the arena, the insert into the trajectory-ordered list, and the
// overlay chain for (y, side) is extended. id is the ID the check phase
// resolved; InvalidID means the code is unknown to the snapshot dictionary
// and receives a provisional ID.
func (sc *specScratch) bufferInsert(y graph.Vertex, dir direction, mr labelseq.Seq, code labelseq.Code, id labelseq.ID) {
	if id == labelseq.InvalidID {
		id = sc.dictBase + labelseq.ID(len(sc.shadow))
		sc.shadow[code] = id
	}
	off := int32(len(sc.cur.arena))
	sc.cur.arena = append(sc.cur.arena, mr...)
	idx := int32(len(sc.cur.inserts))
	sc.cur.inserts = append(sc.cur.inserts, specInsert{
		y:      y,
		mrOff:  off,
		mrID:   id,
		mrCode: code,
		mrLen:  uint8(len(mr)),
		dir:    dir,
	})

	head, ovStamp := sc.ovHeadOut, sc.ovStampOut
	if ySide(dir) == inSide {
		head, ovStamp = sc.ovHeadIn, sc.ovStampIn
	}
	prev := int32(-1)
	if ovStamp[y] == sc.stamp {
		prev = head[y]
	} else {
		ovStamp[y] = sc.stamp
	}
	sc.ovNext = append(sc.ovNext, prev)
	head[y] = idx
}

// mr returns the minimum repeat of one buffered insert.
func (r *specResult) mr(ins *specInsert) labelseq.Seq {
	return labelseq.Seq(r.arena[ins.mrOff : ins.mrOff+int32(ins.mrLen)])
}

// newSpecBuilder derives a worker builder from the committer: it shares the
// immutable inputs and the canonical list headers (read-only during the
// speculation phase) but owns every piece of mutable scratch.
func newSpecBuilder(b *builder) *builder {
	return newBuilderOver(b.ix, b.in, b.out, b.inByLabel, b.outByLabel, newSpecScratch(b.g.NumVertices()))
}

// speculate runs the KBS pair of v against the committed snapshot and
// returns the buffered trajectory.
func (b *builder) speculate(v graph.Vertex) specResult {
	b.spec.reset(b.ix.dict.Len())
	b.stats = BuildStats{}
	b.kbs(v, backward)
	b.kbs(v, forward)
	res := b.spec.cur
	res.v = v
	res.stats = b.stats
	b.spec.cur = specResult{}
	return res
}

// pendingSpec is the scheduler's slot for one rank position: the latest
// speculation for it (if any), the round it snapshotted, and how often a
// commit attempt found it stale.
type pendingSpec struct {
	res     specResult
	snap    uint64 // round stamp the speculation ran under
	retries uint8
	have    bool
}

// runParallelBuild processes the access order with the given worker count
// (>= 2). b is the committer: it owns the canonical lists that freeze will
// compact and is the only builder that ever mutates them or the dictionary.
func runParallelBuild(ix *Index, b *builder, workers int) {
	n := ix.g.NumVertices()
	b.dirtyOut = make([]uint64, n)
	b.dirtyIn = make([]uint64, n)

	ws := make([]*builder, workers)
	for i := range ws {
		ws[i] = newSpecBuilder(b)
	}
	c := &committer{b: b}

	specs := make([]pendingSpec, n) // indexed by rank position
	var toSpec []int32              // rank positions to (re-)speculate this round

	head := 0 // commit frontier: positions < head are committed
	window := workers
	for head < n {
		end := head + window
		if end > n {
			end = n
		}
		b.dirtyStamp++ // the new round's stamp

		// Speculation phase: workers claim the positions in
		// [head, end) that have no carried-over speculation. The
		// canonical lists and the dictionary are frozen until every
		// speculation finished.
		toSpec = toSpec[:0]
		for p := head; p < end; p++ {
			if !specs[p].have {
				toSpec = append(toSpec, int32(p))
			}
		}
		if len(toSpec) == 1 {
			// A lone retry at the commit frontier: not worth a
			// goroutine barrier.
			p := toSpec[0]
			specs[p].res = ws[0].speculate(ix.order[p])
			specs[p].snap = b.dirtyStamp
			specs[p].have = true
		} else {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for _, w := range ws {
				wg.Add(1)
				go func(w *builder) {
					defer wg.Done()
					for {
						i := int(cursor.Add(1)) - 1
						if i >= len(toSpec) {
							return
						}
						p := toSpec[i]
						specs[p].res = w.speculate(ix.order[p])
						specs[p].snap = b.dirtyStamp
						specs[p].have = true
					}
				}(w)
			}
			wg.Wait()
		}
		b.stats.Speculated += int64(len(toSpec))

		// Commit phase: advance the frontier in strict rank order.
		// Every commit stamps the lists it appends to, which is what
		// invalidates later speculations that read them.
		committed := 0
		for head < end {
			s := &specs[head]
			if c.validate(&s.res, s.snap) && c.apply(&s.res) {
				b.stats.addAlgo(s.res.stats)
				b.stats.Committed++
			} else if s.retries > 0 {
				// Second failure: re-run sequentially at the
				// commit slot instead of speculating again.
				b.kbs(s.res.v, backward)
				b.kbs(s.res.v, forward)
				b.stats.Rerun++
			} else {
				// Stale: throw the trajectory away and stop the
				// round. Next round re-speculates this vertex at
				// the commit frontier, where the retry is
				// guaranteed to validate; the speculations beyond
				// it stay pending.
				s.retries++
				s.have = false
				s.res = specResult{}
				break
			}
			*s = pendingSpec{} // release buffers eagerly
			head++
			committed++
		}
		b.stats.Windows++

		window = nextWindow(committed, workers)
	}
}

// nextWindow adapts the speculation depth to the commit throughput of the
// round just finished: the in-flight target tracks the observed clean-run
// length plus one batch per worker, so conflict-free stretches widen the
// window geometrically while conflict-heavy stretches (the hub prefix)
// keep it near the worker count. The schedule depends only on commit
// outcomes — which are themselves deterministic — never on worker timing.
func nextWindow(committed, workers int) int {
	window := committed + workers
	if lim := workers * maxWindowPerWorker; window > lim {
		window = lim
	}
	if window < workers {
		window = workers
	}
	return window
}
