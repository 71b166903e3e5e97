package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/engines"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/hybrid"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// RunTable5 reproduces Table V: speed-ups (SU) and workload-size break-even
// points (BEP) of the RLC index over three graph engines, on the WN replica
// with one k = 3 index serving all four query types:
//
//	Q1 = a+    Q2 = (a b)+    Q3 = (a b c)+    Q4 = a+ b+ (via hybrid)
//
// a, b, c are the three most frequent labels. Every engine answer is checked
// against the index/hybrid answer, so a disagreement fails the run instead
// of producing a meaningless table.
func RunTable5(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	d, err := datasets.ByName("WN")
	if err != nil {
		return nil, err
	}
	cfg.progressf("table5: generating WN replica")
	g, note, err := replica(cfg, d)
	if err != nil {
		return nil, fmt.Errorf("table5: %w", err)
	}

	start := time.Now()
	ix, err := core.Build(g, core.Options{K: 3})
	if err != nil {
		return nil, fmt.Errorf("table5: %w", err)
	}
	buildTime := time.Since(start)
	hyb := hybrid.New(ix)

	a, b, c := labelseq.Label(0), labelseq.Label(1), labelseq.Label(2)
	queryTypes := []struct {
		name string
		expr automaton.Expr
	}{
		{"Q1 a+", automaton.Plus(labelseq.Seq{a})},
		{"Q2 (a b)+", automaton.Plus(labelseq.Seq{a, b})},
		{"Q3 (a b c)+", automaton.Plus(labelseq.Seq{a, b, c})},
		{"Q4 a+ b+", automaton.ConcatPlus(labelseq.Seq{a}, labelseq.Seq{b})},
	}
	engs := []engines.Engine{
		engines.NewSys1(g),
		engines.NewSys2(g),
		engines.NewVirtuosoLike(g),
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	pairs := make([][2]graph.Vertex, cfg.EngineQueries)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(g.NumVertices())), graph.Vertex(r.Intn(g.NumVertices()))}
	}

	t := &Table{
		ID:    "table5",
		Title: fmt.Sprintf("Speed-ups (SU) and break-even points (BEP) over graph engines — WN replica, k = 3, %d queries/type", cfg.EngineQueries),
		Columns: []string{
			"System", "Query", "engine µs/query", "RLC µs/query", "SU", "BEP",
		},
		Notes: []string{
			fmt.Sprintf("RLC index built in %.2fs (%s entries). Q4 uses the index+traversal hybrid. BEP = queries until indexing time amortizes.", buildTime.Seconds(), fmtCount(ix.NumEntries())),
			"\"-\" = engine exceeded its per-type time budget (cf. the timed-out Virtuoso/Q4 cell of Table V).",
			note,
		},
	}

	for _, qt := range queryTypes {
		// Reference timings (and answers) from the index side.
		rlcEval := func(s, tt graph.Vertex) (bool, error) { return hyb.Eval(s, tt, qt.expr) }
		rlcStart := time.Now()
		answers := make([]bool, len(pairs))
		for i, p := range pairs {
			ans, err := rlcEval(p[0], p[1])
			if err != nil {
				return nil, fmt.Errorf("table5: rlc %s: %w", qt.name, err)
			}
			answers[i] = ans
		}
		rlcDur := time.Since(rlcStart)
		rlcPerQuery := rlcDur / time.Duration(len(pairs))

		for _, eng := range engs {
			cfg.progressf("table5: %s %s", eng.Name(), qt.name)
			engStart := time.Now()
			timedOut := false
			for i, p := range pairs {
				got, err := eng.Eval(p[0], p[1], qt.expr)
				if err != nil {
					return nil, fmt.Errorf("table5: %s %s: %w", eng.Name(), qt.name, err)
				}
				if got != answers[i] {
					return nil, fmt.Errorf("table5: %s disagrees with index on %s (%d, %d): engine=%v index=%v",
						eng.Name(), qt.name, p[0], p[1], got, answers[i])
				}
				if i%4 == 3 && time.Since(engStart) > cfg.TraversalTimeLimit {
					timedOut = true
					break
				}
			}
			if timedOut {
				t.Rows = append(t.Rows, []string{eng.Name(), qt.name, "-", fmtMicros(rlcPerQuery), "-", "-"})
				continue
			}
			engPerQuery := time.Since(engStart) / time.Duration(len(pairs))

			su := float64(engPerQuery) / math.Max(float64(rlcPerQuery), 1)
			bep := "1"
			if engPerQuery > rlcPerQuery {
				bep = fmtCount(int64(math.Ceil(float64(buildTime) / float64(engPerQuery-rlcPerQuery))))
			} else {
				bep = "-"
			}
			t.Rows = append(t.Rows, []string{
				eng.Name(), qt.name,
				fmtMicros(engPerQuery), fmtMicros(rlcPerQuery),
				fmt.Sprintf("%.0fx", su), bep,
			})
		}
	}
	return []*Table{t}, nil
}
