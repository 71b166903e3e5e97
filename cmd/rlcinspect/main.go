// Command rlcinspect prints the internals of an RLC index bundle written by
// rlcbuild -o: the bundle's section table — ids, offsets, lengths,
// checksums — with every section verified, then summary statistics, entry
// and hub distributions (the skew behind the paper's Figure 5/6
// discussion), and the decoded Lin/Lout sets of chosen vertices (the Table
// II view).
//
//	rlcinspect -snapshot g.rlcs
//	rlcinspect -snapshot g.rlcs -vertices 0,3,5
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	rlc "github.com/g-rpqs/rlc-go"
	"github.com/g-rpqs/rlc-go/internal/cli"
	"github.com/g-rpqs/rlc-go/internal/core"
)

const synopsis = "rlcinspect — print RLC index internals: stats, distributions, entry sets"

func main() {
	var (
		snapshotPath = flag.String("snapshot", "", "snapshot bundle (.rlcs); prints the section table and verifies checksums")
		vertices     = flag.String("vertices", "", "comma-separated vertex ids whose Lin/Lout to print")
		order        = flag.Bool("order", false, "print the full access order")
	)
	cli.Parse(synopsis, "-snapshot BUNDLE [flags]", "")
	if *snapshotPath == "" {
		cli.Fatalf("-snapshot is required (build a bundle with rlcbuild -o)")
	}
	snap, err := rlc.OpenSnapshot(*snapshotPath)
	if err != nil {
		cli.Fatalf("open snapshot: %v", err)
	}
	dumpSections(snap)
	g, ix := snap.Graph(), snap.Index()

	st := ix.Stats()
	fmt.Printf("index over %d vertices / %d edges, k = %d\n", st.Vertices, st.Edges, st.K)
	fmt.Printf("entries:      %d (%d in, %d out)\n", st.Entries, st.InEntries, st.OutEntries)
	fmt.Printf("distinct MRs: %d\n", st.DistinctMRs)
	fmt.Printf("size:         %.2f MB\n", float64(st.SizeBytes)/(1024*1024))
	fmt.Printf("packed:       %.2f MB (%d groups, %d hash-consed sets, %d pool words, bit-parallel membership)\n",
		float64(st.Packed.SizeBytes)/(1024*1024), st.Packed.Groups, st.Packed.Sets, st.Packed.PoolWords)
	if ix.Tiered() {
		ts := st.Tiers
		fmt.Printf("tiers:        budget %d B: %d exact vertices, %d filtered (%.2f MB filters, %d union sets, %d bloom bits per filter)\n",
			ts.Budget, ts.RetainedVertices, ts.DemotedVertices,
			float64(ts.FilterBytes)/(1024*1024), ts.UnionSets, ts.BloomBitsPerFilter)
	}

	printDist := func(name string, d core.Distribution) {
		fmt.Printf("%s: carriers=%d max=%d mean=%.1f p99=%d top1%%-share=%.1f%%\n",
			name, d.Count, d.Max, d.Mean, d.P99, d.TopShare*100)
	}
	fmt.Println()
	printDist("entry distribution (per vertex)", ix.EntryDistribution())
	printDist("hub distribution (per hub)    ", ix.HubDistribution())

	if *order {
		fmt.Println("\naccess order (IN-OUT strategy):")
		for i, v := range ix.AccessOrder() {
			fmt.Printf("  aid %d: %s\n", i+1, g.VertexName(v))
		}
	}

	if *vertices != "" {
		for _, tok := range strings.Split(*vertices, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || id < 0 || id >= g.NumVertices() {
				cli.Fatalf("bad vertex %q", tok)
			}
			v := rlc.Vertex(id)
			fmt.Printf("\n%s:\n", g.VertexName(v))
			fmt.Print("  Lin:  ")
			printEntries(g, ix.LinEntries(v))
			fmt.Print("  Lout: ")
			printEntries(g, ix.LoutEntries(v))
		}
	}
}

// sectionNames maps the RLC bundle's section ids to display names (ids are
// defined in internal/core's snapshot layout).
var sectionNames = map[uint32]string{
	1: "meta", 2: "graph-out-off", 3: "graph-out-dst", 4: "graph-out-lbl",
	5: "graph-in-off", 6: "graph-in-src", 7: "graph-in-lbl", 8: "dict",
	9: "order", 10: "entries", 11: "index-out-off", 12: "index-in-off",
	13: "vertex-names", 14: "label-names", 15: "packed-meta",
	16: "packed-groups", 17: "packed-out-off", 18: "packed-in-off",
	19: "packed-sets", 20: "packed-set-desc", 21: "tier-meta",
	22: "tier-union-out", 23: "tier-union-in", 24: "tier-sets",
	25: "tier-set-desc", 26: "tier-bloom",
}

// dumpSections prints the bundle's section table, checksumming each payload
// exactly once, then runs Snapshot.VerifyContents — together the same
// integrity pass as Snapshot.Verify, without re-reading the file.
func dumpSections(snap *rlc.Snapshot) {
	fmt.Printf("snapshot %s: %.2f MB, fingerprint %v\n",
		snap.Path(), float64(snap.SizeBytes())/(1024*1024), snap.Fingerprint())
	fmt.Printf("%-4s %-14s %10s %12s %10s %s\n", "id", "section", "offset", "length", "crc32c", "verify")
	corrupt := false
	for _, sec := range snap.Sections() {
		name := sectionNames[sec.ID]
		if name == "" {
			name = "?"
		}
		status := "ok"
		if err := snap.VerifySection(sec.ID); err != nil {
			status = "CORRUPT"
			corrupt = true
		}
		fmt.Printf("%-4d %-14s %10d %12d   %08x %s\n", sec.ID, name, sec.Offset, sec.Length, sec.CRC, status)
	}
	if corrupt {
		cli.Fatalf("snapshot failed checksum verification (see table above)")
	}
	if err := snap.VerifyContents(); err != nil {
		cli.Fatalf("snapshot contents inconsistent: %v", err)
	}
	fmt.Println("all sections verified")
	fmt.Println()
}

func printEntries(g *rlc.Graph, entries []rlc.EntryView) {
	if len(entries) == 0 {
		fmt.Println("-")
		return
	}
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = fmt.Sprintf("(%s, %s)", g.VertexName(e.Hub), e.MR.Format(g.LabelNames()))
	}
	fmt.Println(strings.Join(parts, " "))
}
