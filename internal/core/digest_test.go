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
		{"WN", 2000, Options{K: 2}, OrderInOut, false, "3b1cd0d8f297f7bd5398cc306228fc5b0c98d369c020a8de0ee9a96152f551b2",
			[6]int64{163910, 10629, 74484, 44439, 134198, 8286}},
		{"LJ", 1500, Options{K: 2}, OrderInOut, true, "1b43853a349e63a6762c0d2ad06d578702233fc5fb17fe4479775573e1ff56da",
			[6]int64{725415, 41490, 386923, 152651, 622210, 20198}},
		{"AD", 1000, Options{K: 3}, OrderInOut, true, "8f10a05343c2656253f128e23e97e34b1ba11ed6fc176c1b26539aab04ab5516",
			[6]int64{2138784, 1856, 111761, 42876, 1954778, 163603}},
		{"WN", 2000, Options{K: 1}, OrderInOut, false, "1e761a20eb79b900f2bea7bbdf1150a69c3fe71f4cd9357c1b3aff94a1889d54",
			[6]int64{8612, 1808, 7385, 7385, 5855, 0}},
		{"AD", 1000, Options{K: 1}, OrderInOut, false, "df42c5c99e27ea556892186fad9507df61bffbd0e555e73b73e482da3ed197f3",
			[6]int64{8893, 640, 4419, 4419, 7783, 0}},
		{"SO", 200, Options{K: 3}, OrderInOut, true, "3fa093d62ff7b10fb5e3099ac7068f549dc95199fba89dbb17d130752be861d5",
			[6]int64{696967, 226, 30991, 11793, 606808, 80984}},
		{"WF", 300, Options{K: 2}, OrderInOut, true, "92333c492880a87752ea9cca4ffd24fac9449a65eec570f6474c81efbc747186",
			[6]int64{457997, 13827, 155917, 67316, 415731, 10311}},
		{"TW", 20000, Options{K: 3}, OrderInOut, false, "2a2ab9328ada884b0e4a2de1e60baff37af859ca463436455fbc832d48105c0a",
			[6]int64{261310, 34934, 220097, 134273, 74948, 63418}},
		{"WN", 1000, Options{K: 2}, OrderDegreeSum, false, "8dd4bd8f002608dfc947a44897695ef64fdfee86e057ceb311f2eb62af0d1683",
			[6]int64{73803, 5297, 35356, 20605, 58123, 4152}},
		{"WN", 1000, Options{K: 2}, OrderNatural, false, "36137de612d77c2ee27d3efb93473e93d296ce33231cf3f70be6fe79ad42d63c",
			[6]int64{73803, 5188, 35420, 20808, 58255, 4152}},
		{"WN", 1000, Options{K: 2}, OrderReverse, false, "dca8b94efb72d0852b1605e4ab6babed02a0149f95c333eab0e93caf68af68a0",
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
		{Pruning{PR2: true, PR3: true}, "c7ee569952de87fd20a56fc90fcabd79ae9ef4d005d126f25d5e17414f877749"},
		{Pruning{PR1: true, PR3: true}, "a13df9948313272c0a3174dccc852e99a6947ab641fb60ec5e7e2c41b0b28626"},
		{Pruning{PR1: true, PR2: true}, "a13df9948313272c0a3174dccc852e99a6947ab641fb60ec5e7e2c41b0b28626"},
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
