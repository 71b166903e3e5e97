// Benchmarks mirroring the paper's evaluation artifacts, one per table and
// figure (run `go test -bench=. -benchmem`). Each benchmark exercises the
// code path of the corresponding experiment at a reduced, fixed scale so the
// whole suite completes in minutes; the full parameter sweeps live behind
// cmd/rlcbench, which regenerates the complete tables.
package rlc_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	rlc "github.com/g-rpqs/rlc-go"
	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/dynamic"
	"github.com/g-rpqs/rlc-go/internal/engines"
	"github.com/g-rpqs/rlc-go/internal/etc"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/hybrid"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/traversal"
	"github.com/g-rpqs/rlc-go/internal/workload"
)

// Benchmark fixtures are built once and shared across benchmarks.
var (
	fixOnce sync.Once
	fix     struct {
		// Per-dataset micro replicas (benchVertices vertices).
		replicas map[string]*graph.Graph
		// An index, workload and evaluators on the TW replica.
		tw      *graph.Graph
		twIndex *core.Index
		twWork  workload.Workload
	}
)

const benchVertices = 2000

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fix.replicas = map[string]*graph.Graph{}
		for _, name := range []string{"AD", "EP", "TW", "WN"} {
			d, err := datasets.ByName(name)
			if err != nil {
				panic(err)
			}
			g, err := d.Generate(benchVertices, 42)
			if err != nil {
				panic(err)
			}
			fix.replicas[name] = g
		}
		fix.tw = fix.replicas["TW"]
		ix, err := core.Build(fix.tw, core.Options{K: 2})
		if err != nil {
			panic(err)
		}
		fix.twIndex = ix
		w, err := workload.Generate(fix.tw, workload.Options{NumTrue: 100, NumFalse: 100, ConcatLen: 2, Seed: 1})
		if err != nil {
			panic(err)
		}
		fix.twWork = w
	})
}

// --- Table III ---------------------------------------------------------

// BenchmarkTable3Stats measures the dataset statistics computation (loop
// and triangle counting) behind Table III.
func BenchmarkTable3Stats(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		st := graph.ComputeStats(fix.tw)
		if st.Vertices == 0 {
			b.Fatal("empty stats")
		}
	}
}

// --- Table IV ----------------------------------------------------------

// BenchmarkTable4IndexBuild measures RLC index construction (k = 2) per
// dataset replica — the IT column of Table IV.
func BenchmarkTable4IndexBuild(b *testing.B) {
	fixtures(b)
	for _, name := range []string{"AD", "EP", "TW", "WN"} {
		g := fix.replicas[name]
		b.Run(name, func(b *testing.B) {
			var entries int64
			var bytes int64
			for i := 0; i < b.N; i++ {
				ix, err := core.Build(g, core.Options{K: 2})
				if err != nil {
					b.Fatal(err)
				}
				entries = ix.NumEntries()
				bytes = ix.SizeBytes()
			}
			b.ReportMetric(float64(entries), "entries")
			b.ReportMetric(float64(bytes)/(1024*1024), "MB")
		})
	}
}

// BenchmarkTable4ETCBuild measures ETC construction on the smallest replica
// (the only dataset where the paper's ETC completes) — the ETC columns of
// Table IV.
func BenchmarkTable4ETCBuild(b *testing.B) {
	fixtures(b)
	g := fix.replicas["AD"]
	var records int64
	for i := 0; i < b.N; i++ {
		closure, err := etc.Build(g, etc.Options{K: 2})
		if err != nil {
			b.Fatal(err)
		}
		records = closure.NumRecords()
	}
	b.ReportMetric(float64(records), "records")
}

// --- Figure 3 ----------------------------------------------------------

// BenchmarkFig3Query measures per-query time of each evaluation method on
// the TW replica's 2-label workload — the series of Figure 3.
func BenchmarkFig3Query(b *testing.B) {
	fixtures(b)
	queries := fix.twWork.All()
	nfas := map[string]*automaton.NFA{}
	for _, q := range queries {
		key := q.L.String()
		if _, ok := nfas[key]; !ok {
			nfa, err := automaton.NewPlus(q.L, fix.tw.NumLabels())
			if err != nil {
				b.Fatal(err)
			}
			nfas[key] = nfa
		}
	}
	closure, err := etc.Build(fix.tw, etc.Options{K: 2})
	if err != nil {
		b.Fatal(err)
	}
	ev := traversal.NewEvaluator(fix.tw)

	b.Run("BFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if got := ev.BFS(q.S, q.T, nfas[q.L.String()]); got != q.Expected {
				b.Fatal("wrong answer")
			}
		}
	})
	b.Run("BiBFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if got := ev.BiBFS(q.S, q.T, nfas[q.L.String()]); got != q.Expected {
				b.Fatal("wrong answer")
			}
		}
	})
	b.Run("ETC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			got, err := closure.Query(q.S, q.T, q.L)
			if err != nil || got != q.Expected {
				b.Fatal("wrong answer", err)
			}
		}
	})
	b.Run("RLCIndex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			got, err := fix.twIndex.Query(q.S, q.T, q.L)
			if err != nil || got != q.Expected {
				b.Fatal("wrong answer", err)
			}
		}
	})
}

// --- Figure 4 ----------------------------------------------------------

// BenchmarkFig4VaryK measures index construction on the TW replica as the
// recursive k grows — the indexing-time series of Figure 4.
func BenchmarkFig4VaryK(b *testing.B) {
	fixtures(b)
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var entries int64
			for i := 0; i < b.N; i++ {
				ix, err := core.Build(fix.tw, core.Options{K: k})
				if err != nil {
					b.Fatal(err)
				}
				entries = ix.NumEntries()
			}
			b.ReportMetric(float64(entries), "entries")
		})
	}
}

// --- Figure 5 ----------------------------------------------------------

// BenchmarkFig5Sweep measures index construction across the (model, |L|)
// grid corners of Figure 5 (d = 5).
func BenchmarkFig5Sweep(b *testing.B) {
	for _, model := range []string{"ER", "BA"} {
		for _, labels := range []int{8, 36} {
			b.Run(fmt.Sprintf("%s/L=%d", model, labels), func(b *testing.B) {
				var g *graph.Graph
				var err error
				if model == "ER" {
					g, err = rlc.GenerateER(benchVertices, benchVertices*5, labels, 7)
				} else {
					g, err = rlc.GenerateBA(benchVertices, 5, labels, 7)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Build(g, core.Options{K: 2}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 6 ----------------------------------------------------------

// BenchmarkFig6Scale measures index construction as |V| doubles (d = 5,
// |L| = 16) — the scalability series of Figure 6.
func BenchmarkFig6Scale(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			g, err := rlc.GenerateBA(n, 5, 16, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(g, core.Options{K: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7 ----------------------------------------------------------

// BenchmarkFig7VaryKSynthetic measures index construction on ER- and
// BA-graphs as k grows — Appendix C's Figure 7.
func BenchmarkFig7VaryKSynthetic(b *testing.B) {
	for _, model := range []string{"ER", "BA"} {
		var g *graph.Graph
		var err error
		if model == "ER" {
			g, err = rlc.GenerateER(1000, 5000, 16, 7)
		} else {
			g, err = rlc.GenerateBA(1000, 5, 16, 7)
		}
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{2, 3, 4} {
			b.Run(fmt.Sprintf("%s/k=%d", model, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Build(g, core.Options{K: k}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Table V -----------------------------------------------------------

// BenchmarkTable5Engines measures per-query time of the three engine
// comparators and the index-backed evaluator on the WN replica for the four
// query types of Table V.
func BenchmarkTable5Engines(b *testing.B) {
	fixtures(b)
	g := fix.replicas["WN"]
	ix, err := core.Build(g, core.Options{K: 3})
	if err != nil {
		b.Fatal(err)
	}
	hyb := hybrid.New(ix)
	queryTypes := []struct {
		name string
		expr automaton.Expr
	}{
		{"Q1", automaton.Plus(labelseq.Seq{0})},
		{"Q2", automaton.Plus(labelseq.Seq{0, 1})},
		{"Q3", automaton.Plus(labelseq.Seq{0, 1, 2})},
		{"Q4", automaton.ConcatPlus(labelseq.Seq{0}, labelseq.Seq{1})},
	}
	systems := []struct {
		name string
		eval func(s, t graph.Vertex, e automaton.Expr) (bool, error)
	}{
		{"RLC", hyb.Eval},
		{"Sys1", engines.NewSys1(g).Eval},
		{"Sys2", engines.NewSys2(g).Eval},
		{"Virtuoso", engines.NewVirtuosoLike(g).Eval},
	}
	for _, qt := range queryTypes {
		for _, sys := range systems {
			b.Run(qt.name+"/"+sys.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := graph.Vertex((i * 131) % g.NumVertices())
					t := graph.Vertex((i*977 + 13) % g.NumVertices())
					if _, err := sys.eval(s, t, qt.expr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationPruning measures how each pruning rule contributes to
// build time and index size — the design choices Section V-B motivates and
// Appendix D discusses. Every rule set builds with Algorithm 2 as stated
// (core.BuildReference); ProductionBuilder is core.Build, which writes the
// AllRules index.
func BenchmarkAblationPruning(b *testing.B) {
	fixtures(b)
	configs := []struct {
		name  string
		rules core.Pruning
	}{
		{"AllRules", core.Pruning{PR1: true, PR2: true, PR3: true}},
		{"NoPR1", core.Pruning{PR2: true, PR3: true}},
		{"NoPR2", core.Pruning{PR1: true, PR3: true}},
		{"NoPR3", core.Pruning{PR1: true, PR2: true}},
		{"NoPruning", core.Pruning{}},
	}
	report := func(b *testing.B, build func() (*core.Index, error)) {
		var entries int64
		for i := 0; i < b.N; i++ {
			ix, err := build()
			if err != nil {
				b.Fatal(err)
			}
			entries = ix.NumEntries()
		}
		b.ReportMetric(float64(entries), "entries")
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			report(b, func() (*core.Index, error) { return core.BuildReference(fix.tw, core.Options{K: 2}, cfg.rules) })
		})
	}
	b.Run("ProductionBuilder", func(b *testing.B) {
		report(b, func() (*core.Index, error) { return core.Build(fix.tw, core.Options{K: 2}) })
	})
}

// --- Micro-benchmarks ----------------------------------------------------

// BenchmarkQueryLookup isolates one index lookup — the number behind the
// microsecond-scale query times of Figures 3-6.
func BenchmarkQueryLookup(b *testing.B) {
	fixtures(b)
	queries := fix.twWork.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := fix.twIndex.Query(q.S, q.T, q.L); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimumRepeat isolates the KMP-based MR computation at the core
// of kernel-based search.
func BenchmarkMinimumRepeat(b *testing.B) {
	seqs := []labelseq.Seq{
		{0}, {0, 1}, {0, 1, 0, 1}, {0, 1, 2, 0, 1, 2, 0, 1}, {3, 1, 4, 1, 5, 9, 2, 6},
	}
	for i := 0; i < b.N; i++ {
		labelseq.MinimumRepeat(seqs[i%len(seqs)])
	}
}

// BenchmarkWorkloadGeneration measures the Section VI-c query generator.
func BenchmarkWorkloadGeneration(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(fix.tw, workload.Options{NumTrue: 20, NumFalse: 20, ConcatLen: 2, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTargetProbe measures the amortized many-source query primitive
// behind the hybrid evaluator.
func BenchmarkTargetProbe(b *testing.B) {
	fixtures(b)
	probe, err := fix.twIndex.NewTargetProbe(0, labelseq.Seq{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	n := fix.tw.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe.Reaches(graph.Vertex(i % n))
	}
}

// BenchmarkDeltaQuery measures overlay reads — the dynamic extension's hot
// path — on the WN replica (few labels, so closures are large: the graph the
// socket benchmark's mixed-repl serves) with 256 of its edges withheld from
// the base index and sitting in the journal, split by answer. The workload
// is mined on the full graph, so every false query misses the base index and
// searches the overlay, and so does every true query whose witnesses all use
// a withheld edge. ns/op is the mean; max-ns is the slowest single query of a
// warm pass over the bucket (p99-scale: 100 queries) — BiBFS is bounded by
// the sum of the two closures, not by the smaller one.
func BenchmarkDeltaQuery(b *testing.B) {
	fixtures(b)
	const withheld = 256
	wn := fix.replicas["WN"]
	work, err := workload.Generate(wn, workload.Options{NumTrue: 100, NumFalse: 100, ConcatLen: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	edges := wn.Edges()
	rand.New(rand.NewSource(15)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	base := graph.FromEdges(wn.NumVertices(), wn.NumLabels(), edges[withheld:])
	ix, err := core.Build(base, core.Options{K: 2})
	if err != nil {
		b.Fatal(err)
	}
	d, err := dynamic.NewWithJournal(base, ix, edges[:withheld])
	if err != nil {
		b.Fatal(err)
	}
	for _, bucket := range []struct {
		name    string
		queries []workload.Query
		want    bool
	}{{"true", work.True, true}, {"false", work.False, false}} {
		b.Run(bucket.name, func(b *testing.B) {
			var worst time.Duration
			for pass := 0; pass < 2; pass++ { // the first pass warms, the second is timed
				for _, q := range bucket.queries {
					start := time.Now()
					got, err := d.Query(q.S, q.T, q.L)
					if err != nil || got != bucket.want {
						b.Fatalf("Query(%d, %d, %v+) = %v, %v; want %v", q.S, q.T, q.L, got, err, bucket.want)
					}
					if el := time.Since(start); pass == 1 && el > worst {
						worst = el
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := bucket.queries[i%len(bucket.queries)]
				if _, err := d.Query(q.S, q.T, q.L); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(worst.Nanoseconds()), "max-ns")
		})
	}
}
