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
	"os"
	"time"

	rlc "github.com/g-rpqs/rlc-go"
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
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rlcquery: unexpected argument %q\n\n", flag.Arg(0))
		usage()
		os.Exit(2)
	}
	if (*snapPath == "") == (*graphPath == "") {
		fatalf("exactly one of -snapshot or -graph is required")
	}

	var (
		g  *rlc.Graph
		ix *rlc.Index
	)
	if *snapPath != "" {
		snap, err := rlc.OpenVerifiedSnapshot(*snapPath)
		if err != nil {
			fatalf("open snapshot: %v", err)
		}
		g, ix = snap.Graph(), snap.Index()
	} else {
		if *method == "index" || *method == "hybrid" {
			fatalf("-method %s needs -snapshot (build a bundle with rlcbuild -o)", *method)
		}
		var err error
		if g, err = rlc.LoadGraphFile(*graphPath); err != nil {
			fatalf("load graph: %v", err)
		}
	}

	switch {
	case *batch && *queries == "":
		fatalf("-batch needs -queries")
	case *batch && *method != "index":
		fatalf("-batch supports only -method index, got %q", *method)
	case *batch:
		if err := runBatchWorkload(ix, *queries, *workers); err != nil {
			fatalf("%v", err)
		}
	case *queries != "":
		if err := runWorkload(g, ix, *method, *queries); err != nil {
			fatalf("%v", err)
		}
	case *expr != "" && *s >= 0 && *t >= 0:
		ans, dur, err := runOne(g, ix, *method, rlc.Vertex(*s), rlc.Vertex(*t), *expr)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("(%d, %d, %s) = %v  [%s, %v]\n", *s, *t, *expr, ans, *method, dur)
	default:
		fatalf("need either -queries, or -s/-t/-expr")
	}
}

func runOne(g *rlc.Graph, ix *rlc.Index, method string, s, t rlc.Vertex, exprText string) (bool, time.Duration, error) {
	e, err := rlc.ParseExpr(exprText, g)
	if err != nil {
		return false, 0, err
	}
	start := time.Now()
	var ans bool
	switch method {
	case "index":
		if len(e.Segments) != 1 || !e.Segments[0].Plus {
			return false, 0, fmt.Errorf("method index needs a single L+ segment; use -method hybrid for %q", exprText)
		}
		ans, err = ix.Query(s, t, e.Segments[0].Labels)
	case "hybrid":
		ans, err = rlc.NewHybridEvaluator(ix).Eval(s, t, e)
	case "bfs", "bibfs", "dfs":
		if len(e.Segments) != 1 || !e.Segments[0].Plus {
			return false, 0, fmt.Errorf("method %s needs a single L+ segment", method)
		}
		switch method {
		case "bfs":
			ans, err = rlc.EvalBFS(g, s, t, e.Segments[0].Labels)
		case "bibfs":
			ans, err = rlc.EvalBiBFS(g, s, t, e.Segments[0].Labels)
		case "dfs":
			ans, err = rlc.EvalDFS(g, s, t, e.Segments[0].Labels)
		}
	default:
		return false, 0, fmt.Errorf("unknown method %q", method)
	}
	return ans, time.Since(start), err
}

func runWorkload(g *rlc.Graph, ix *rlc.Index, method, path string) error {
	wl, err := workload.LoadFile(path)
	if err != nil {
		return err
	}
	qs := wl.All()

	eval := func(q rlc.Query) (bool, error) {
		switch method {
		case "index":
			return ix.Query(q.S, q.T, q.L)
		case "bfs":
			return rlc.EvalBFS(g, q.S, q.T, q.L)
		case "bibfs":
			return rlc.EvalBiBFS(g, q.S, q.T, q.L)
		case "dfs":
			return rlc.EvalDFS(g, q.S, q.T, q.L)
		case "hybrid":
			return rlc.NewHybridEvaluator(ix).Eval(q.S, q.T, rlc.PlusExpr(q.L))
		default:
			return false, fmt.Errorf("unknown method %q", method)
		}
	}

	start := time.Now()
	correct := 0
	for _, q := range qs {
		got, err := eval(q)
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

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "%s\n\nusage: rlcquery (-snapshot BUNDLE | -graph FILE) (-s N -t N -expr EXPR | -queries FILE) [flags]\n\nflags:\n", synopsis)
	flag.PrintDefaults()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlcquery: "+format+"\n", args...)
	os.Exit(1)
}
