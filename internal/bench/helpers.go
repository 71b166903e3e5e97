package bench

import (
	"errors"
	"fmt"
	"time"

	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

// errTimeLimit marks a query-set run that exceeded its budget — rendered as
// "X" like the timed-out cells of Figure 3.
var errTimeLimit = errors.New("bench: time limit exceeded")

// replica generates a dataset replica honoring the config's scale and the
// vertex/edge caps. The note it returns, for the tables the replica feeds,
// gives the replica's |V| and |E| and names what bound |V|: the scale, the
// vertex cap or the edge cap.
func replica(cfg Config, d datasets.Dataset) (*graph.Graph, string, error) {
	v := d.ReplicaVertices(cfg.Scale)
	bound := fmt.Sprintf("-scale %g", cfg.Scale)
	if v > cfg.MaxVertices {
		v, bound = cfg.MaxVertices, fmt.Sprintf("-max-vertices %d", cfg.MaxVertices)
	}
	if byEdges := int(float64(cfg.MaxEdges) / d.AvgDegree()); byEdges > 0 && v > byEdges {
		v, bound = byEdges, fmt.Sprintf("-max-edges %d", cfg.MaxEdges)
	}
	if v < 600 {
		v, bound = 600, "the 600-vertex floor"
	}
	seed := cfg.Seed
	for _, c := range d.Name {
		seed = seed*131 + int64(c)
	}
	g, err := d.Generate(v, seed)
	if err != nil {
		return nil, "", err
	}
	return g, fmt.Sprintf("%s replica: %d vertices, %d edges; |V| bound by %s.",
		d.Name, g.NumVertices(), g.NumEdges(), bound), nil
}

// buildWorkload generates a concat-length-2 workload unless overridden.
func buildWorkload(cfg Config, g *graph.Graph, concatLen int) (workload.Workload, error) {
	return workload.Generate(g, workload.Options{
		NumTrue:   cfg.QueriesPerSet,
		NumFalse:  cfg.QueriesPerSet,
		ConcatLen: concatLen,
		Seed:      cfg.Seed,
	})
}

// timeQuerySet evaluates every query through eval, verifying each answer
// against the workload's ground truth (a benchmark that returns wrong
// answers would be meaningless). It stops with errTimeLimit when the budget
// runs out.
func timeQuerySet(queries []workload.Query, limit time.Duration, eval func(q workload.Query) (bool, error)) (time.Duration, error) {
	start := time.Now()
	for i, q := range queries {
		got, err := eval(q)
		if err != nil {
			return 0, err
		}
		if got != q.Expected {
			return 0, fmt.Errorf("bench: evaluator answered %v for query (%d, %d, %v+), ground truth %v", got, q.S, q.T, q.L, q.Expected)
		}
		if limit > 0 && i%16 == 15 && time.Since(start) > limit {
			return time.Since(start), errTimeLimit
		}
	}
	return time.Since(start), nil
}

// --- formatting ------------------------------------------------------------

func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

func fmtMicros(d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(d.Microseconds()))
}

func fmtMB(bytes int64) string {
	return fmt.Sprintf("%.2f", float64(bytes)/(1024*1024))
}

func fmtCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fB", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}
