package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/datasets"
)

// algoCounters is BuildStats in declaration order: KernelSearchStates,
// KernelBFSRuns, KernelBFSNodes, Inserted, PrunedPR1, PrunedPR2, PrunedDup.
func algoCounters(st BuildStats) [7]int64 {
	return [7]int64{
		st.KernelSearchStates, st.KernelBFSRuns, st.KernelBFSNodes,
		st.Inserted, st.PrunedPR1, st.PrunedPR2, st.PrunedDup,
	}
}

// TestBuildDigestStable pins the build's output across commits: the sha256
// of the WriteSnapshot bytes and the seven algorithm counters of eight
// non-trivial graph and k combinations, and of one graph under every
// pruning ablation and access order (the paths where the builder forks on
// an option). The first three were recorded at c633a7b, before the
// builder's scratch state was rewritten, the option cases at 88064ea,
// before it moved into access-rank space, and the k = 1, SO (three labels,
// self-loops), WF (25 labels) and TW cases at 120b86a; a change to the
// builder that moves a digest changed the index, not just its speed.
// A faster builder may lower some counters without changing the index, and
// only in rows with the rules it leans on switched on. KernelBFSRuns,
// KernelBFSNodes and PrunedPR1 were re-pinned in the rows with PR1 and PR3
// both on when a frontier vertex whose own insert was rejected stopped
// seeding kernel BFS; KernelSearchStates and PrunedPR2 were re-pinned, by
// the same amount, in the rows with PR1, PR2 and PR3 all on when the kernel
// search stopped visiting the depth-k states PR2 rejects (builder.go, kbs,
// argues both). The DisablePR* rows keep all seven counters, and
// KernelSearchStates − PrunedPR2, Inserted and PrunedDup are unchanged in
// every row. (TestDeterministicBuild compares two runs of the same code and
// the Fig. 2 golden has six vertices.)
func TestBuildDigestStable(t *testing.T) {
	cases := []struct {
		dataset  string
		vertices int
		opts     Options
		digest   string
		counters [7]int64
	}{
		{"WN", 2000, Options{K: 2}, "3b1cd0d8f297f7bd5398cc306228fc5b0c98d369c020a8de0ee9a96152f551b2",
			[7]int64{163910, 10629, 74484, 44439, 134198, 8286, 0}},
		{"LJ", 1500, Options{K: 2}, "1b43853a349e63a6762c0d2ad06d578702233fc5fb17fe4479775573e1ff56da",
			[7]int64{725415, 41490, 386923, 152651, 622210, 20198, 0}},
		{"AD", 1000, Options{K: 3}, "8f10a05343c2656253f128e23e97e34b1ba11ed6fc176c1b26539aab04ab5516",
			[7]int64{2138784, 1856, 111761, 42876, 1954778, 163603, 0}},
		{"WN", 2000, Options{K: 1}, "1e761a20eb79b900f2bea7bbdf1150a69c3fe71f4cd9357c1b3aff94a1889d54",
			[7]int64{8612, 1808, 7385, 7385, 5855, 0, 0}},
		{"AD", 1000, Options{K: 1}, "df42c5c99e27ea556892186fad9507df61bffbd0e555e73b73e482da3ed197f3",
			[7]int64{8893, 640, 4419, 4419, 7783, 0, 0}},
		{"SO", 200, Options{K: 3}, "3fa093d62ff7b10fb5e3099ac7068f549dc95199fba89dbb17d130752be861d5",
			[7]int64{696967, 226, 30991, 11793, 606808, 80984, 0}},
		{"WF", 300, Options{K: 2}, "92333c492880a87752ea9cca4ffd24fac9449a65eec570f6474c81efbc747186",
			[7]int64{457997, 13827, 155917, 67316, 415731, 10311, 0}},
		{"TW", 20000, Options{K: 3}, "2a2ab9328ada884b0e4a2de1e60baff37af859ca463436455fbc832d48105c0a",
			[7]int64{261310, 34934, 220097, 134273, 74948, 63418, 0}},
		{"WN", 1000, Options{K: 2, DisablePR1: true}, "c7ee569952de87fd20a56fc90fcabd79ae9ef4d005d126f25d5e17414f877749",
			[7]int64{138840, 16194, 1353977, 745184, 0, 69189, 732}},
		{"WN", 1000, Options{K: 2, DisablePR2: true}, "a13df9948313272c0a3174dccc852e99a6947ab641fb60ec5e7e2c41b0b28626",
			[7]int64{138840, 5309, 35350, 20677, 128793, 0, 0}},
		{"WN", 1000, Options{K: 2, DisablePR3: true}, "a13df9948313272c0a3174dccc852e99a6947ab641fb60ec5e7e2c41b0b28626",
			[7]int64{138840, 16194, 5627242, 20677, 1555885, 1572898, 0}},
		{"WN", 1000, Options{K: 2, Order: OrderDegreeSum}, "8dd4bd8f002608dfc947a44897695ef64fdfee86e057ceb311f2eb62af0d1683",
			[7]int64{73803, 5297, 35356, 20605, 58123, 4152, 0}},
		{"WN", 1000, Options{K: 2, Order: OrderNatural}, "36137de612d77c2ee27d3efb93473e93d296ce33231cf3f70be6fe79ad42d63c",
			[7]int64{73803, 5188, 35420, 20808, 58255, 4152, 0}},
		{"WN", 1000, Options{K: 2, Order: OrderReverse}, "dca8b94efb72d0852b1605e4ab6babed02a0149f95c333eab0e93caf68af68a0",
			[7]int64{73803, 6476, 173115, 51486, 59255, 4152, 0}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s@%d %+v", tc.dataset, tc.vertices, tc.opts)
		d, err := datasets.ByName(tc.dataset)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Generate(tc.vertices, 1)
		if err != nil {
			t.Fatal(err)
		}
		ix, st, err := BuildWithStats(g, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(serialize(t, ix))
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s: bundle sha256 = %s, want %s", name, got, tc.digest)
		}
		if got := algoCounters(st); got != tc.counters {
			t.Errorf("%s: counters = %v, want %v", name, got, tc.counters)
		}
	}
}
