// Command rlcgen generates the synthetic graphs and query workloads used by
// the paper's evaluation, plus the paper's two figure graphs.
//
//	rlcgen -model er -n 10000 -d 5 -labels 16 -seed 1 -out er.graph
//	rlcgen -model ba -n 10000 -d 5 -labels 16 -out ba.graph
//	rlcgen -model dataset -dataset WN -scale 0.01 -out wn.graph
//	rlcgen -model fig2 -out fig2.graph
//	rlcgen -model er -n 1000 -d 4 -labels 8 -out g.graph \
//	       -workload g.queries -queries 1000 -len 2
//
// The workload file has one query per line: "src dst l1,l2 expected".
package main

import (
	"flag"
	"fmt"
	"strings"

	rlc "github.com/g-rpqs/rlc-go"
	"github.com/g-rpqs/rlc-go/internal/cli"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

const synopsis = "rlcgen — generate synthetic graphs and query workloads"

func main() {
	var (
		model     = flag.String("model", "er", "graph model: er, ba, dataset, fig1, or fig2")
		n         = flag.Int("n", 10000, "number of vertices (er, ba)")
		d         = flag.Int("d", 5, "average degree (er) / out-edges per vertex (ba)")
		labels    = flag.Int("labels", 8, "label-set size (er, ba)")
		seed      = flag.Int64("seed", 1, "random seed")
		dataset   = flag.String("dataset", "", "Table III dataset name (model=dataset)")
		scale     = flag.Float64("scale", 0.01, "replica scale (model=dataset)")
		out       = flag.String("out", "", "output graph file (required)")
		wout      = flag.String("workload", "", "also generate a workload to this file")
		queries   = flag.Int("queries", 1000, "queries per true/false set")
		concatLen = flag.Int("len", 2, "constraint concatenation length")
	)
	cli.Parse(synopsis, "-out FILE [flags]", "")
	if *out == "" {
		cli.Fatalf("missing -out")
	}

	g, err := generate(*model, *n, *d, *labels, *seed, *dataset, *scale)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if err := rlc.SaveGraphFile(*out, g); err != nil {
		cli.Fatalf("save graph: %v", err)
	}
	st := rlc.ComputeGraphStats(g)
	fmt.Printf("wrote %s: %d vertices, %d edges, %d labels, %d loops, %d triangles\n",
		*out, st.Vertices, st.Edges, st.Labels, st.Loops, st.Triangles)

	if *wout == "" {
		return
	}
	w, err := rlc.GenerateWorkload(g, rlc.WorkloadOptions{
		NumTrue: *queries, NumFalse: *queries, ConcatLen: *concatLen, Seed: *seed,
	})
	if err != nil {
		cli.Fatalf("workload: %v", err)
	}
	if err := workload.SaveFile(*wout, w); err != nil {
		cli.Fatalf("save workload: %v", err)
	}
	fmt.Printf("wrote %s: %d true + %d false queries (|L| = %d)\n", *wout, len(w.True), len(w.False), *concatLen)
}

func generate(model string, n, d, labels int, seed int64, dataset string, scale float64) (*rlc.Graph, error) {
	switch strings.ToLower(model) {
	case "er":
		return rlc.GenerateER(n, n*d, labels, seed)
	case "ba":
		return rlc.GenerateBA(n, d, labels, seed)
	case "dataset":
		ds, err := datasets.ByName(dataset)
		if err != nil {
			return nil, err
		}
		return ds.Replica(scale)
	case "fig1":
		return rlc.ExampleFig1(), nil
	case "fig2":
		return rlc.ExampleFig2(), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want er, ba, dataset, fig1, fig2)", model)
	}
}
