package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/datasets"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// algoCounters is BuildStats in declaration order: KernelSearchStates,
// KernelBFSRuns, KernelBFSNodes, Inserted, PrunedPR1, PrunedPR2.
func algoCounters(st BuildStats) [6]int64 {
	return [6]int64{
		st.KernelSearchStates, st.KernelBFSRuns, st.KernelBFSNodes,
		st.Inserted, st.PrunedPR1, st.PrunedPR2,
	}
}

// digestOf is the hex sha256 of ix's WriteSnapshot bytes.
func digestOf(t *testing.T, ix *Index) string {
	sum := sha256.Sum256(serialize(t, ix))
	return hex.EncodeToString(sum[:])
}

// TestBuildDigestStable pins the build's output across commits: the sha256
// of the WriteSnapshot bytes and the six algorithm counters of eight
// non-trivial graph and k combinations, and of one graph under every
// access order. BuildReference must write the same bytes in every row (the
// four slowest only without -short and -race), and the pruning ablations,
// which only BuildReference builds, are pinned on that graph too. The first
// three were recorded at c633a7b, before the builder's scratch state was
// rewritten, the order and ablation cases at 88064ea, before it moved into
// access-rank space, and the k = 1, SO (three labels, self-loops), WF (25
// labels) and TW cases at 120b86a; a change to the builder that moves a
// digest changed the index, not just its speed. A faster builder may lower
// some counters without changing the index. KernelBFSRuns, KernelBFSNodes
// and PrunedPR1 were re-pinned when a frontier vertex whose own insert was
// rejected stopped seeding kernel BFS; KernelSearchStates and PrunedPR2
// were re-pinned, by the same amount, when the kernel search stopped
// visiting the depth-k states PR2 rejects (builder.go, kbs, argues both).
// KernelSearchStates − PrunedPR2 and Inserted are unchanged in every row.
// Every digest was re-pinned when bundles stopped carrying a copy of the
// in-adjacency (sections 5-7): each new one is the sha256 of the bundle
// the previous builder wrote, re-containered without those three sections,
// so the index bytes did not move.
// (TestDeterministicBuild compares two runs of the same code and the Fig. 2
// golden has six vertices.)
func TestBuildDigestStable(t *testing.T) {
	generate := func(dataset string, vertices int) *graph.Graph {
		d, err := datasets.ByName(dataset)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Generate(vertices, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		dataset  string
		vertices int
		opts     Options
		order    Order
		slowRef  bool // BuildReference takes 2-10 s
		digest   string
		counters [6]int64
	}{
		{"WN", 2000, Options{K: 2}, OrderInOut, false, "08d7e6fb98c44181e639605f7db92db8993db0567d599c1dbbfd474b0c6fb4f8",
			[6]int64{163910, 10629, 74484, 44439, 134198, 8286}},
		{"LJ", 1500, Options{K: 2}, OrderInOut, true, "ed4a0c5442e00e25ca39b2416c6ca167e25806dee74b8e13e423fb552fbe17cc",
			[6]int64{725415, 41490, 386923, 152651, 622210, 20198}},
		{"AD", 1000, Options{K: 3}, OrderInOut, true, "ce19e94926b75b6f225783b56f6d5d7b654b5d976f0806e9ab2d424b57430a10",
			[6]int64{2138784, 1856, 111761, 42876, 1954778, 163603}},
		{"WN", 2000, Options{K: 1}, OrderInOut, false, "1f50514e05707b8f6a3ad7263c2859ca994b8e8742aa44bc1f00e0856849ae28",
			[6]int64{8612, 1808, 7385, 7385, 5855, 0}},
		{"AD", 1000, Options{K: 1}, OrderInOut, false, "a0d4352411689151fc04b03ce568cc2f42e0ffb634e5445f0352352900b56652",
			[6]int64{8893, 640, 4419, 4419, 7783, 0}},
		{"SO", 200, Options{K: 3}, OrderInOut, true, "ad4d674f945df48486b1dc9bf7f215cad8b5cabec71cfe03f12d004d7cdea068",
			[6]int64{696967, 226, 30991, 11793, 606808, 80984}},
		{"WF", 300, Options{K: 2}, OrderInOut, true, "1d51fa24fe6602f9025a7d02dfd3af1fcb6a7b22f28b3c133aa61b2c9503ba45",
			[6]int64{457997, 13827, 155917, 67316, 415731, 10311}},
		{"TW", 20000, Options{K: 3}, OrderInOut, false, "4b842a398d2f6a4b4e62d82029bd764e0b028f2f4e4ef75d5542be712cad26f0",
			[6]int64{261310, 34934, 220097, 134273, 74948, 63418}},
		{"WN", 1000, Options{K: 2}, OrderDegreeSum, false, "227c243fea9fd91a6edc071adebbc2e20f66f7a0da3c8f0c76eb4c41eeb78627",
			[6]int64{73803, 5297, 35356, 20605, 58123, 4152}},
		{"WN", 1000, Options{K: 2}, OrderNatural, false, "d71a988bd2e5841e0b032c095609e4ad0864fb989194eae77e5442172975ab55",
			[6]int64{73803, 5188, 35420, 20808, 58255, 4152}},
		{"WN", 1000, Options{K: 2}, OrderReverse, false, "f937ee4fd11eaac60ed87b00830de724571bf192d7c17076666e254d45347ac9",
			[6]int64{73803, 6476, 173115, 51486, 59255, 4152}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s@%d %+v order %d", tc.dataset, tc.vertices, tc.opts, tc.order)
		g := generate(tc.dataset, tc.vertices)
		var ix *Index
		var st BuildStats
		var err error
		if tc.order == OrderInOut {
			ix, st, err = BuildWithStats(g, tc.opts)
		} else {
			ix, _, _, st, err = buildInOrder(g, tc.opts, tc.order)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := digestOf(t, ix); got != tc.digest {
			t.Errorf("%s: bundle sha256 = %s, want %s", name, got, tc.digest)
		}
		if got := algoCounters(st); got != tc.counters {
			t.Errorf("%s: counters = %v, want %v", name, got, tc.counters)
		}
		if tc.slowRef && (testing.Short() || raceEnabled) {
			continue
		}
		rules := allRules
		rules.Order = tc.order
		ref, err := BuildReference(g, tc.opts, rules)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := digestOf(t, ref); got != tc.digest {
			t.Errorf("%s: BuildReference bundle sha256 = %s, want %s", name, got, tc.digest)
		}
	}

	ablations := []struct {
		rules  Pruning
		digest string
	}{
		{Pruning{PR2: true, PR3: true}, "e0b3f29e50e9c9244239bfd0e44798d46f92610a7ca5b967bc813be64c98dd29"},
		{Pruning{PR1: true, PR3: true}, "79230dc1eb716c7971c39460b2c888664b5241607f0eec87dbc333bf439c8aba"},
		{Pruning{PR1: true, PR2: true}, "79230dc1eb716c7971c39460b2c888664b5241607f0eec87dbc333bf439c8aba"},
	}
	g := generate("WN", 1000)
	for _, tc := range ablations {
		ix, err := BuildReference(g, Options{K: 2}, tc.rules)
		if err != nil {
			t.Fatalf("WN@1000 %+v: %v", tc.rules, err)
		}
		if got := digestOf(t, ix); got != tc.digest {
			t.Errorf("WN@1000 %+v: bundle sha256 = %s, want %s", tc.rules, got, tc.digest)
		}
	}
}
