// Command rlcbench reproduces the tables and figures of the paper's
// evaluation section (Table III, Table IV, Figures 3-7, Table V).
//
//	rlcbench -exp all                      # everything, default scale
//	rlcbench -exp table4 -scale 0.01       # larger replicas
//	rlcbench -exp fig3 -datasets AD,TW,WN  # subset of datasets
//	rlcbench -exp table5 -out results/     # write markdown files
//	rlcbench -exp table4 -json r.json      # machine-readable report, commit-stamped
//	rlcbench -exp table3 -scale 1 -max-vertices 1000000 -max-edges 0  # full-size replicas
//
// Scale guidance: the default (-scale 0.004, caps of 20000 vertices and
// 120000 edges) finishes in minutes on a laptop; -max-edges 0 lifts the
// edge cap, and every table's note names the cap that bound each replica.
// The paper's absolute numbers used graphs up to 123M edges on a 128 GB
// server; what this harness reproduces is the shape: method orderings,
// growth trends, and order-of-magnitude gaps.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/g-rpqs/rlc-go/internal/bench"
	"github.com/g-rpqs/rlc-go/internal/cli"
)

const synopsis = "rlcbench — reproduce the paper's experimental tables and figures"

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table3..5, fig3..7, ablation) or \"all\"")
		scale    = flag.Float64("scale", 0, "dataset replica scale (0 = default)")
		maxV     = flag.Int("max-vertices", 0, "replica vertex cap (0 = default)")
		maxE     = flag.Int("max-edges", 120000, "replica edge cap (0 = no cap)")
		queries  = flag.Int("queries", 0, "queries per true/false set (0 = default)")
		seed     = flag.Int64("seed", 0, "random seed (0 = default)")
		dsets    = flag.String("datasets", "", "comma-separated dataset filter (empty = all)")
		synthV   = flag.Int("synth-vertices", 0, "fig5 synthetic |V| (0 = default)")
		out      = flag.String("out", "", "directory for markdown output (empty = stdout only)")
		etcLimit = flag.Duration("etc-limit", 0, "ETC construction budget (0 = default)")
		jsonOut  = flag.String("json", "", "write a machine-readable JSON report of the whole run to this file")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
	)
	cli.Parse(synopsis, "[flags]", "")

	cfg := bench.Config{
		Scale:         *scale,
		MaxVertices:   *maxV,
		MaxEdges:      *maxE,
		QueriesPerSet: *queries,
		Seed:          *seed,
		SynthVertices: *synthV,
		ETCTimeLimit:  *etcLimit,
	}
	if *maxE == 0 {
		cfg.MaxEdges = -1 // bench.Config reads 0 as its default cap, a negative value as none
	}
	if *dsets != "" {
		cfg.Datasets = strings.Split(*dsets, ",")
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	var exps []bench.Experiment
	if strings.EqualFold(*exp, "all") {
		exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				cli.Fatalf("%v", err)
			}
			exps = append(exps, e)
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			cli.Fatalf("mkdir %s: %v", *out, err)
		}
	}

	report := bench.NewReport()
	for _, e := range exps {
		fmt.Fprintf(os.Stderr, "=== %s: %s\n", e.ID, e.Title)
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			cli.Fatalf("%s: %v", e.ID, err)
		}
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "=== %s finished in %v\n", e.ID, elapsed.Round(time.Millisecond))
		report.Add(e, tables, elapsed)
		for _, t := range tables {
			fmt.Println()
			if err := t.Render(os.Stdout); err != nil {
				cli.Fatalf("render: %v", err)
			}
			if *out != "" {
				path := filepath.Join(*out, t.ID+".md")
				if err := os.WriteFile(path, []byte(t.Markdown()), 0o644); err != nil {
					cli.Fatalf("write %s: %v", path, err)
				}
			}
		}
	}
	if *jsonOut != "" {
		if err := report.WriteFile(*jsonOut); err != nil {
			cli.Fatalf("write %s: %v", *jsonOut, err)
		}
		fmt.Fprintf(os.Stderr, "JSON report written to %s\n", *jsonOut)
	}
}
