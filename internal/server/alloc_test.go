package server

import (
	"context"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// TestAnswerRLCAllocFree holds computeSeq to no allocation: an index-class
// query on an immutable generation costs one generation load, the probe, and
// zero heap allocations.
func TestAnswerRLCAllocFree(t *testing.T) {
	s := New(buildIndex(t, graph.Fig2()), Options{})
	defer s.Close()

	ctx := context.Background()
	l := labelseq.Seq{0, 1}
	avg := testing.AllocsPerRun(200, func() {
		if _, cached, err := s.AnswerRLC(ctx, 0, 2, l); err != nil || cached {
			panic("AnswerRLC failed, or claimed a cache hit")
		}
	})
	if avg != 0 {
		t.Errorf("AnswerRLC: %.1f allocs/op, want 0", avg)
	}
}
