package etc

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// ErrBudget reports that construction exceeded the configured time or
// memory budget — the "-" cells of Table IV.
var ErrBudget = errors.New("etc: construction budget exceeded")

// Options bounds ETC construction. Zero values mean "no limit".
type Options struct {
	// K is the recursive k; zero means 2.
	K int
	// TimeLimit aborts construction when exceeded (checked per source
	// vertex).
	TimeLimit time.Duration
	// MaxPairEntries aborts construction when the total number of
	// (pair, k-MR) records exceeds the cap.
	MaxPairEntries int64
}

func (o Options) k() int {
	if o.K == 0 {
		return 2
	}
	return o.K
}

// ETC is the materialized extended transitive closure.
type ETC struct {
	g    *graph.Graph
	k    int
	dict *labelseq.Dict
	// pairs maps src<<32|dst to the ids of the k-MRs of paths between
	// the pair.
	pairs   map[uint64][]labelseq.ID
	records int64
}

func pairKey(u, v graph.Vertex) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// Build materializes the ETC of g: Algorithm 2's forward kernel-based
// search from every vertex, with no pruning rule, recording every pair and
// k-MR it meets. It returns ErrBudget (wrapped) when the configured limits
// are hit.
func Build(g *graph.Graph, opts Options) (*ETC, error) {
	k := opts.k()
	if k < 1 || k > core.MaxK {
		return nil, fmt.Errorf("etc: k must be in [1, %d], got %d", core.MaxK, k)
	}
	numLabels := g.NumLabels()
	if numLabels == 0 {
		numLabels = 1
	}
	dict, err := labelseq.NewDict(numLabels, k)
	if err != nil {
		return nil, fmt.Errorf("etc: %w", err)
	}
	e := &ETC{
		g:     g,
		k:     k,
		dict:  dict,
		pairs: make(map[uint64][]labelseq.ID),
	}
	kbs := core.NewKBS(g, dict.Coder(), k)
	start := time.Now()
	for src := graph.Vertex(0); int(src) < g.NumVertices(); src++ {
		if opts.TimeLimit > 0 && time.Since(start) > opts.TimeLimit {
			return nil, fmt.Errorf("%w: time limit %v at vertex %d/%d", ErrBudget, opts.TimeLimit, src, g.NumVertices())
		}
		if opts.MaxPairEntries > 0 && e.records > opts.MaxPairEntries {
			return nil, fmt.Errorf("%w: %d records exceed cap %d", ErrBudget, e.records, opts.MaxPairEntries)
		}
		kbs.Run(src, true, func(y graph.Vertex, mr labelseq.Seq, code labelseq.Code) bool {
			e.record(src, y, dict.InternCode(code, mr))
			return true
		})
	}
	return e, nil
}

// record adds (u, v, mr) unless the closure holds it already.
func (e *ETC) record(u, v graph.Vertex, mr labelseq.ID) {
	key := pairKey(u, v)
	list := e.pairs[key]
	if slices.Contains(list, mr) {
		return
	}
	e.pairs[key] = append(list, mr)
	e.records++
}

// Query answers the RLC query (s, t, L+) from the materialized closure.
func (e *ETC) Query(s, t graph.Vertex, l labelseq.Seq) (bool, error) {
	if s < 0 || int(s) >= e.g.NumVertices() || t < 0 || int(t) >= e.g.NumVertices() {
		return false, fmt.Errorf("etc: vertex out of range")
	}
	if len(l) == 0 || len(l) > e.k {
		return false, fmt.Errorf("etc: constraint length %d outside [1, %d]", len(l), e.k)
	}
	if !labelseq.IsPrimitive(l) {
		return false, fmt.Errorf("etc: constraint %v is not a minimum repeat", l)
	}
	id := e.dict.Lookup(l)
	if id == labelseq.InvalidID {
		return false, nil
	}
	for _, have := range e.pairs[pairKey(s, t)] {
		if have == id {
			return true, nil
		}
	}
	return false, nil
}

// K returns the recursive k.
func (e *ETC) K() int { return e.k }

// NumPairs returns the number of reachable pairs with at least one k-MR.
func (e *ETC) NumPairs() int { return len(e.pairs) }

// NumRecords returns the total number of (pair, k-MR) records.
func (e *ETC) NumRecords() int64 { return e.records }

// SizeBytes estimates the resident size of the closure, charging realistic
// Go map overhead per pair: this is what Table IV reports for ETC.
func (e *ETC) SizeBytes() int64 {
	const perPair = 8 + 24 + 16 // key + slice header + bucket share
	return int64(len(e.pairs))*perPair + e.records*4
}
