package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// BatchQuery is one RLC query (S, T, L+) of a QueryBatch call.
type BatchQuery struct {
	S, T graph.Vertex
	L    labelseq.Seq
}

// BatchResult is the answer to the batch query at the same position:
// Reachable is meaningful only when Err is nil. Err carries the same
// validation errors Query would return for that query (ErrVertexRange,
// ErrNotMinimumRepeat, ...); one invalid query never fails the batch.
type BatchResult struct {
	Reachable bool
	Err       error
}

// batchChunk is the number of consecutive queries a worker claims per
// counter increment: large enough to amortize the atomic, small enough to
// keep the tail balanced.
const batchChunk = 64

// batchScratch is the per-worker scratch of QueryBatch. Query workloads
// repeat a small set of constraints, so a direct-mapped memo from packed
// constraint code to interned MR id turns the per-query dictionary hash
// lookup into one indexed load. Slot code%batchMemoSlots holds the last
// constraint seen there; 128 slots hold every code below 128 apart, which
// covers all 72 constraints of k = 2 over 8 labels (codes 1..80). Code 0 is
// the empty sequence, which checkShape refuses, so a zero slot is empty.
// Everything here lives on one worker's stack frame — no sharing, no locks,
// no per-query allocation.
type batchScratch struct {
	codes [batchMemoSlots]labelseq.Code
	ids   [batchMemoSlots]labelseq.ID
}

const batchMemoSlots = 128

// lookupMR validates the constraint and resolves its interned MR id
// through the memo. A memo hit proves the whole constraint valid — equal
// packed codes mean equal sequences, so the primitivity (minimum-repeat)
// check amortizes across the batch instead of re-running per query.
// Negative lookups (InvalidID: no path in the graph carries this k-MR) are
// cached too — false-query workloads hit them constantly. A constraint
// whose slot another code holds goes to the dictionary and takes the slot.
func (sc *batchScratch) lookupMR(ix *Index, l labelseq.Seq) (labelseq.ID, error) {
	if err := ix.checkShape(l); err != nil {
		return labelseq.InvalidID, err
	}
	code := ix.dict.Coder().Encode(l)
	slot := code % batchMemoSlots
	if sc.codes[slot] == code {
		return sc.ids[slot], nil
	}
	if !labelseq.IsPrimitive(l) {
		return labelseq.InvalidID, fmt.Errorf("%w: %v", ErrNotMinimumRepeat, l)
	}
	id := ix.dict.LookupCode(code)
	sc.codes[slot], sc.ids[slot] = code, id
	return id, nil
}

// answerBatch evaluates queries[start:end] into the matching result slots.
// Every slot in the range is fully overwritten, so QueryBatchInto can hand
// in a dirty reused buffer without clearing it first. The context is
// consulted once per batchChunk queries; after cancellation the remaining
// slots are filled with the context's error, so the positional contract
// holds even for an abandoned batch.
//
// This is the per-worker inner loop, so TestQueryBatchIntoAllocFree holds it
// allocation-free: a steady stream of valid queries costs zero allocations
// per answer, and only rejected queries pay for their error values.
func (ix *Index) answerBatch(ctx context.Context, queries []BatchQuery, results []BatchResult, start, end int, sc *batchScratch) {
	for i := start; i < end; i++ {
		if (i-start)%batchChunk == 0 {
			if err := ctx.Err(); err != nil {
				for j := i; j < end; j++ {
					results[j] = BatchResult{Err: err}
				}
				return
			}
		}
		q := &queries[i]
		if err := ix.checkVertices(q.S, q.T); err != nil {
			results[i] = BatchResult{Err: err}
			continue
		}
		mr, err := sc.lookupMR(ix, q.L)
		if err != nil {
			results[i] = BatchResult{Err: err}
			continue
		}
		reachable := false
		if mr != labelseq.InvalidID {
			reachable = ix.queryByID(q.S, q.T, mr)
		}
		results[i] = BatchResult{Reachable: reachable}
	}
}

// QueryBatch answers many RLC queries concurrently and returns one result
// per query, position for position. workers <= 0 means GOMAXPROCS; one
// worker (or a single-query batch) runs inline without spawning goroutines.
//
// Workers claim fixed-size chunks of the query slice off an atomic cursor,
// so skewed per-query costs still balance, and each worker reuses its own
// scratch across all queries it answers — the steady state is
// allocation-free per query. The index is immutable, which is what makes
// the fan-out safe; QueryBatch may itself be called concurrently with
// Query and other QueryBatch calls.
func (ix *Index) QueryBatch(queries []BatchQuery, workers int) []BatchResult {
	return ix.QueryBatchIntoCtx(context.Background(), queries, workers, nil)
}

// QueryBatchInto is QueryBatch writing into a caller-provided result buffer,
// which is grown only when its capacity is short — the returned slice must
// be used in its place. Servers answering a steady stream of batches reuse
// one buffer per connection and allocate nothing at all per batch.
func (ix *Index) QueryBatchInto(queries []BatchQuery, workers int, results []BatchResult) []BatchResult {
	return ix.QueryBatchIntoCtx(context.Background(), queries, workers, results)
}

// QueryBatchIntoCtx is QueryBatchInto under a context — the form the HTTP
// server's batch handler uses, so a client that disconnects mid-batch stops
// burning workers at the next chunk boundary.
//
// With an adequately sized reused buffer and a single worker, a whole batch
// allocates nothing (TestQueryBatchIntoAllocFree); only a short buffer's
// grow and the multi-worker fan-out, which spawns goroutines by design,
// allocate.
func (ix *Index) QueryBatchIntoCtx(ctx context.Context, queries []BatchQuery, workers int, results []BatchResult) []BatchResult {
	if cap(results) < len(queries) {
		results = make([]BatchResult, len(queries)) // caller's buffer too short: grow once, returned for reuse
	} else {
		results = results[:len(queries)]
	}
	if len(queries) == 0 {
		return results
	}
	workers = EffectiveBatchWorkers(len(queries), workers)
	if workers == 1 {
		// Inline, so a reused result buffer makes the whole call
		// allocation-free (the parallel path below boxes the closure
		// captures, which is noise next to spawning goroutines).
		var sc batchScratch
		ix.answerBatch(ctx, queries, results, 0, len(queries), &sc)
		return results
	}
	ix.runBatchWorkers(ctx, queries, results, workers) // parallel fan-out spawns worker goroutines by design
	return results
}

// EffectiveBatchWorkers returns the worker count QueryBatch actually runs
// for a batch of numQueries when the caller requests workers (<= 0 meaning
// GOMAXPROCS): small batches are clamped to the number of work chunks, so
// requesting more workers than there is work never spawns idle goroutines.
func EffectiveBatchWorkers(numQueries, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunks := (numQueries + batchChunk - 1) / batchChunk; workers > chunks {
		workers = chunks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runBatchWorkers fans queries out over a worker pool; each worker claims
// fixed-size chunks off the shared cursor until the slice is drained.
func (ix *Index) runBatchWorkers(ctx context.Context, queries []BatchQuery, results []BatchResult, workers int) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var sc batchScratch
			for {
				end := int(cursor.Add(batchChunk))
				start := end - batchChunk
				if start >= len(queries) {
					return
				}
				if end > len(queries) {
					end = len(queries)
				}
				ix.answerBatch(ctx, queries, results, start, end, &sc)
			}
		}()
	}
	wg.Wait()
}
