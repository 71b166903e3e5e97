package core

import (
	"crypto/sha256"
	"encoding/hex"
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
// of the WriteSnapshot bytes and the seven algorithm counters of three
// non-trivial graphs. The constants were recorded at c633a7b, before the
// builder's scratch state was rewritten; a change to the builder that moves
// any of them changed the index, not just its speed. (TestDeterministicBuild
// compares two runs of the same code and the Fig. 2 golden has six vertices.)
func TestBuildDigestStable(t *testing.T) {
	cases := []struct {
		dataset  string
		vertices int
		k        int
		digest   string
		counters [7]int64
	}{
		{"WN", 2000, 2, "3b1cd0d8f297f7bd5398cc306228fc5b0c98d369c020a8de0ee9a96152f551b2",
			[7]int64{310386, 32402, 927881, 44439, 923444, 956034, 0}},
		{"LJ", 1500, 2, "1b43853a349e63a6762c0d2ad06d578702233fc5fb17fe4479775573e1ff56da",
			[7]int64{1409244, 126076, 7513552, 152651, 6214124, 6325742, 0}},
		{"AD", 1000, 3, "8f10a05343c2656253f128e23e97e34b1ba11ed6fc176c1b26539aab04ab5516",
			[7]int64{3939030, 41740, 25457292, 42876, 8936362, 8953022, 0}},
	}
	for _, tc := range cases {
		d, err := datasets.ByName(tc.dataset)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Generate(tc.vertices, 1)
		if err != nil {
			t.Fatal(err)
		}
		ix, st, err := BuildWithStats(g, Options{K: tc.k})
		if err != nil {
			t.Fatalf("%s: %v", tc.dataset, err)
		}
		sum := sha256.Sum256(serialize(t, ix))
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s@%d k=%d: bundle sha256 = %s, want %s",
				tc.dataset, tc.vertices, tc.k, got, tc.digest)
		}
		if got := algoCounters(st); got != tc.counters {
			t.Errorf("%s@%d k=%d: counters = %v, want %v",
				tc.dataset, tc.vertices, tc.k, got, tc.counters)
		}
	}
}
