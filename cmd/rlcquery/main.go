// Command rlcquery evaluates RLC (and extended) queries against a snapshot
// bundle written by rlcbuild -o, or against a graph file, with a choice of
// evaluation method.
//
//	rlcquery -snapshot g.rlcs -s 14 -t 19 -expr "(debits credits)+"
//	rlcquery -graph g.graph -method bibfs -s 0 -t 5 -expr "(l0 l1)+"
//	rlcquery -snapshot g.rlcs -queries g.queries
//	rlcquery -snapshot g.rlcs -queries g.queries -batch -workers 8
//
// Methods: index (default), hybrid (index + traversal, supports
// multi-segment expressions such as "a+ b+"), bfs, bibfs, dfs. With
// -snapshot the index and the graph come from the bundle. A graph file
// (-graph) has no index, so it takes only the traversal methods bfs, bibfs
// and dfs; rlcbuild is the one tool that builds an index.
//
// With -queries, -batch switches the index method to the concurrent
// QueryBatch API: the whole workload is answered by -workers parallel
// workers (0 = GOMAXPROCS) instead of one query at a time.
package main

import (
	"flag"
	"fmt"
	"time"

	rlc "github.com/g-rpqs/rlc-go"
	"github.com/g-rpqs/rlc-go/internal/cli"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

const synopsis = "rlcquery — evaluate RLC (and extended) queries against a graph"

func main() {
	var (
		snapPath  = flag.String("snapshot", "", "snapshot bundle (.rlcs) holding the index and its graph")
		graphPath = flag.String("graph", "", "input graph file, for the traversal methods bfs, bibfs and dfs")
		method    = flag.String("method", "index", "index, hybrid, bfs, bibfs, or dfs")
		s         = flag.Int("s", -1, "source vertex id")
		t         = flag.Int("t", -1, "target vertex id")
		expr      = flag.String("expr", "", "path expression, e.g. \"(l0 l1)+\" or \"a+ b+\"")
		queries   = flag.String("queries", "", "workload file from rlcgen (one query per line)")
		batch     = flag.Bool("batch", false, "answer the -queries workload via the concurrent QueryBatch API (method index only)")
		workers   = flag.Int("workers", 0, "worker goroutines for -batch (0 = GOMAXPROCS)")
	)
	cli.Parse(synopsis, "(-snapshot BUNDLE | -graph FILE) (-s N -t N -expr EXPR | -queries FILE) [flags]", "")
	if (*snapPath == "") == (*graphPath == "") {
		cli.Fatalf("exactly one of -snapshot or -graph is required")
	}

	var (
		g  *rlc.Graph
		ix *rlc.Index
	)
	if *snapPath != "" {
		snap, err := rlc.OpenVerifiedSnapshot(*snapPath)
		if err != nil {
			cli.Fatalf("open snapshot: %v", err)
		}
		g, ix = snap.Graph(), snap.Index()
	} else {
		if *method == "index" || *method == "hybrid" {
			cli.Fatalf("-method %s needs -snapshot (build a bundle with rlcbuild -o)", *method)
		}
		var err error
		if g, err = rlc.LoadGraphFile(*graphPath); err != nil {
			cli.Fatalf("load graph: %v", err)
		}
	}

	switch {
	case *batch && *queries == "":
		cli.Fatalf("-batch needs -queries")
	case *batch && *method != "index":
		cli.Fatalf("-batch supports only -method index, got %q", *method)
	case *batch:
		if err := runBatchWorkload(ix, *queries, *workers); err != nil {
			cli.Fatalf("%v", err)
		}
	case *queries != "":
		if err := runWorkload(queryFunc(g, ix, *method), *method, *queries); err != nil {
			cli.Fatalf("%v", err)
		}
	case *expr != "" && *s >= 0 && *t >= 0:
		ans, dur, err := runOne(g, queryFunc(g, ix, *method), *method, rlc.Vertex(*s), rlc.Vertex(*t), *expr)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		fmt.Printf("(%d, %d, %s) = %v  [%s, %v]\n", *s, *t, *expr, ans, *method, dur)
	default:
		cli.Fatalf("need either -queries, or -s/-t/-expr")
	}
}

// query answers (s, t, e) by one -method.
type query func(s, t rlc.Vertex, e rlc.Expr) (bool, error)

// queryFunc is the method table: it builds the evaluator of method once, for
// every query it answers. hybrid takes any expression; index and the
// traversal methods take a single L+ segment.
func queryFunc(g *rlc.Graph, ix *rlc.Index, method string) query {
	var plus func(s, t rlc.Vertex, l rlc.Seq) (bool, error)
	switch method {
	case "hybrid":
		return rlc.NewHybridEvaluator(ix).Eval
	case "index":
		plus = ix.Query
	case "bfs":
		plus = func(s, t rlc.Vertex, l rlc.Seq) (bool, error) { return rlc.EvalBFS(g, s, t, l) }
	case "bibfs":
		plus = func(s, t rlc.Vertex, l rlc.Seq) (bool, error) { return rlc.EvalBiBFS(g, s, t, l) }
	case "dfs":
		plus = func(s, t rlc.Vertex, l rlc.Seq) (bool, error) { return rlc.EvalDFS(g, s, t, l) }
	default:
		return func(rlc.Vertex, rlc.Vertex, rlc.Expr) (bool, error) {
			return false, fmt.Errorf("unknown method %q", method)
		}
	}
	return func(s, t rlc.Vertex, e rlc.Expr) (bool, error) {
		if len(e.Segments) != 1 || !e.Segments[0].Plus {
			return false, fmt.Errorf("method %s needs a single L+ segment", method)
		}
		return plus(s, t, e.Segments[0].Labels)
	}
}

func runOne(g *rlc.Graph, eval query, method string, s, t rlc.Vertex, exprText string) (bool, time.Duration, error) {
	e, err := rlc.ParseExpr(exprText, g)
	if err != nil {
		return false, 0, err
	}
	if method == "index" && (len(e.Segments) != 1 || !e.Segments[0].Plus) {
		return false, 0, fmt.Errorf("method index needs a single L+ segment; use -method hybrid for %q", exprText)
	}
	start := time.Now()
	ans, err := eval(s, t, e)
	return ans, time.Since(start), err
}

func runWorkload(eval query, method, path string) error {
	wl, err := workload.LoadFile(path)
	if err != nil {
		return err
	}
	qs := wl.All()

	// One expression, its labels swapped per query, so that timing the
	// workload times the method and not building a query.
	e := rlc.Expr{Segments: []rlc.Segment{{Plus: true}}}
	start := time.Now()
	correct := 0
	for _, q := range qs {
		e.Segments[0].Labels = q.L
		got, err := eval(q.S, q.T, e)
		if err != nil {
			return err
		}
		if got == q.Expected {
			correct++
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d queries in %v (%.1f µs/query) via %s; %d/%d match ground truth\n",
		len(qs), elapsed, float64(elapsed.Microseconds())/float64(len(qs)), method, correct, len(qs))
	if correct != len(qs) {
		return fmt.Errorf("%d queries disagree with ground truth", len(qs)-correct)
	}
	return nil
}

func runBatchWorkload(ix *rlc.Index, path string, workers int) error {
	wl, err := workload.LoadFile(path)
	if err != nil {
		return err
	}
	qs := wl.All()
	batch := make([]rlc.BatchQuery, len(qs))
	for i, q := range qs {
		batch[i] = rlc.BatchQuery{S: q.S, T: q.T, L: q.L}
	}
	// Report the worker count QueryBatch actually runs — small workloads
	// clamp below the requested parallelism.
	workers = rlc.EffectiveBatchWorkers(len(batch), workers)

	start := time.Now()
	results := ix.QueryBatch(batch, workers)
	elapsed := time.Since(start)

	correct := 0
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("query %d (%d, %d, %v): %w", i, qs[i].S, qs[i].T, qs[i].L, res.Err)
		}
		if res.Reachable == qs[i].Expected {
			correct++
		}
	}
	fmt.Printf("%d queries in %v (%.1f µs/query) via batch index, %d workers; %d/%d match ground truth\n",
		len(qs), elapsed, float64(elapsed.Microseconds())/float64(len(qs)), workers, correct, len(qs))
	if correct != len(qs) {
		return fmt.Errorf("%d queries disagree with ground truth", len(qs)-correct)
	}
	return nil
}
