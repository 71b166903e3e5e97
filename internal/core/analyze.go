package core

import (
	"sort"

	"github.com/g-rpqs/rlc-go/internal/graph"
)

// Distribution summarizes how index entries spread over vertices or hubs.
// The paper's discussion of Figures 5 and 6 attributes the true/false query
// asymmetry on BA- vs ER-graphs to exactly this skew: on BA-graphs, a few
// high-degree hubs dominate the entry lists.
type Distribution struct {
	// Count is the number of carriers (vertices or hubs) with at least
	// one entry.
	Count int
	// Max, Mean and P99 describe entries per carrier.
	Max  int
	Mean float64
	P99  int
	// TopShare is the fraction of all entries held by the top 1% of
	// carriers — the skew measure.
	TopShare float64
}

// EntryDistribution returns the distribution of |Lin(v)| + |Lout(v)| over
// vertices.
func (ix *Index) EntryDistribution() Distribution {
	n := ix.g.NumVertices()
	counts := make([]int, 0, n)
	p := ix.packed
	for v := graph.Vertex(0); int(v) < n; v++ {
		if c := int(p.count(p.list(lin, v)) + p.count(p.list(lout, v))); c > 0 {
			counts = append(counts, c)
		}
	}
	return summarize(counts)
}

// HubDistribution returns the distribution of entries per hub: how many
// entries across the whole index name each hub vertex. High concentration
// means queries repeatedly merge-join through the same few hubs.
func (ix *Index) HubDistribution() Distribution {
	perHub := make([]int, len(ix.order))
	for e := range ix.packed.entries(ix.packed.groups) {
		perHub[e.hub]++
	}
	counts := perHub[:0]
	for _, c := range perHub {
		if c > 0 {
			counts = append(counts, c)
		}
	}
	return summarize(counts)
}

func summarize(counts []int) Distribution {
	var d Distribution
	d.Count = len(counts)
	if d.Count == 0 {
		return d
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	total := 0
	for _, c := range counts {
		total += c
		if c > d.Max {
			d.Max = c
		}
	}
	d.Mean = float64(total) / float64(len(counts))
	d.P99 = counts[len(counts)*1/100]
	top := len(counts) / 100
	if top == 0 {
		top = 1
	}
	topSum := 0
	for _, c := range counts[:top] {
		topSum += c
	}
	d.TopShare = float64(topSum) / float64(total)
	return d
}
