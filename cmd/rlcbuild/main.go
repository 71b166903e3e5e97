// Command rlcbuild constructs an RLC index for a graph file and writes it
// as a self-contained v2 snapshot bundle (-o). It is the one binary that
// builds an index: rlcserve and rlccluster serve the bundle (rlcserve
// hot-swaps it on reload), and rlcquery and rlcinspect read it with
// -snapshot.
//
//	rlcbuild -graph g.graph -k 2 -o g.rlcs
//
// It prints the indexing time and index statistics that Table IV reports.
// Construction is deterministic: the same graph and flags always write the
// same bundle bytes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	rlc "github.com/g-rpqs/rlc-go"
)

const synopsis = "rlcbuild — build and serialize an RLC index for a graph file"

func main() {
	var (
		graphPath = flag.String("graph", "", "input graph file (required)")
		k         = flag.Int("k", 2, "recursive k")
		bundle    = flag.String("o", "", "output snapshot bundle (required; self-contained, written to a temporary file and renamed into place)")
		maxBytes  = flag.Int64("max-index-bytes", 0, "size budget for the index: keep exact entry lists for the top-ranked vertices that fit, demote the rest to may-reach filters (0 = unlimited; answers stay exact either way)")
		noPR1     = flag.Bool("no-pr1", false, "disable pruning rule PR1 (ablation)")
		noPR2     = flag.Bool("no-pr2", false, "disable pruning rule PR2 (ablation)")
		noPR3     = flag.Bool("no-pr3", false, "disable pruning rule PR3 (ablation)")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rlcbuild: unexpected argument %q\n\n", flag.Arg(0))
		usage()
		os.Exit(2)
	}
	if *graphPath == "" {
		fatalf("missing -graph")
	}
	if *bundle == "" {
		fatalf("missing -o")
	}
	if *maxBytes < 0 {
		fatalf("-max-index-bytes must be >= 0 (0 = unlimited), got %d", *maxBytes)
	}

	g, err := rlc.LoadGraphFile(*graphPath)
	if err != nil {
		fatalf("load graph: %v", err)
	}
	fmt.Printf("graph: %d vertices, %d edges, %d labels\n", g.NumVertices(), g.NumEdges(), g.NumLabels())

	start := time.Now()
	ix, bst, err := rlc.BuildIndexWithStats(g, rlc.Options{
		K:             *k,
		MaxIndexBytes: *maxBytes,
		DisablePR1:    *noPR1,
		DisablePR2:    *noPR2,
		DisablePR3:    *noPR3,
	})
	if err != nil {
		fatalf("build: %v", err)
	}
	elapsed := time.Since(start)

	st := ix.Stats()
	fmt.Printf("indexing time: %.3fs\n", elapsed.Seconds())
	fmt.Printf("index size:    %.2f MB (%d entries: %d in, %d out; %d distinct MRs)\n",
		float64(st.SizeBytes)/(1024*1024), st.Entries, st.InEntries, st.OutEntries, st.DistinctMRs)
	fmt.Printf("packed:        %.2f MB (%d groups, %d hash-consed sets, %d pool words)\n",
		float64(st.Packed.SizeBytes)/(1024*1024), st.Packed.Groups, st.Packed.Sets, st.Packed.PoolWords)
	if *maxBytes > 0 && !ix.Tiered() {
		fmt.Printf("tiers:         budget %d B fits the whole index, nothing demoted\n", *maxBytes)
	}
	if ix.Tiered() {
		ts := st.Tiers
		fmt.Printf("tiers:         budget %d B: %d exact vertices, %d filtered (%.2f MB filters, %d union sets, %d bloom bits each)\n",
			ts.Budget, ts.RetainedVertices, ts.DemotedVertices,
			float64(ts.FilterBytes)/(1024*1024), ts.UnionSets, ts.BloomBitsPerFilter)
	}
	fmt.Printf("construction:  %d kernel-search states, %d kernel-BFS runs, %d kernel-BFS nodes; %d inserts, pruned %d by PR1, %d by PR2, %d as duplicates\n",
		bst.KernelSearchStates, bst.KernelBFSRuns, bst.KernelBFSNodes, bst.Inserted, bst.PrunedPR1, bst.PrunedPR2, bst.PrunedDup)

	if err := ix.SaveSnapshotFile(*bundle); err != nil {
		fatalf("save snapshot: %v", err)
	}
	// Re-open and verify what was just written: a bundle that fails its
	// own checksums should never leave the build step.
	if _, err := rlc.OpenVerifiedSnapshot(*bundle); err != nil {
		fatalf("verify snapshot: %v", err)
	}
	fmt.Printf("wrote %s (self-contained snapshot bundle, verified; serve with rlcserve -snapshot or rlccluster -snapshot)\n", *bundle)
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "%s\n\nusage: rlcbuild -graph FILE -o BUNDLE [flags]\n\nflags:\n", synopsis)
	flag.PrintDefaults()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlcbuild: "+format+"\n", args...)
	os.Exit(1)
}
