package graph

import (
	"strings"
	"testing"
)

func TestAdoptCSRRoundTrip(t *testing.T) {
	g := Fig2()
	csr := g.RawCSR()
	adopted, err := AdoptCSR(g.NumVertices(), g.NumLabels(), csr, g.VertexNames(), g.LabelNames())
	if err != nil {
		t.Fatal(err)
	}
	if adopted.NumVertices() != g.NumVertices() || adopted.NumEdges() != g.NumEdges() ||
		adopted.NumLabels() != g.NumLabels() {
		t.Fatalf("adopted shape %d/%d/%d != %d/%d/%d",
			adopted.NumVertices(), adopted.NumEdges(), adopted.NumLabels(),
			g.NumVertices(), g.NumEdges(), g.NumLabels())
	}
	for _, e := range g.Edges() {
		if !adopted.HasEdge(e.Src, e.Label, e.Dst) {
			t.Fatalf("adopted graph lost edge %v", e)
		}
	}
	if adopted.Fingerprint() != g.Fingerprint() {
		t.Fatalf("adopted fingerprint %v != %v", adopted.Fingerprint(), g.Fingerprint())
	}
	if got, want := adopted.VertexName(0), g.VertexName(0); got != want {
		t.Fatalf("adopted vertex name %q != %q", got, want)
	}
}

func TestAdoptCSRRejectsCorruptArrays(t *testing.T) {
	g := Fig2()
	n, L := g.NumVertices(), g.NumLabels()
	cases := []struct {
		name   string
		mutate func(c *CSR) (n, L int)
		errSub string
	}{
		{"out-off-short", func(c *CSR) (int, int) { c.OutOff = c.OutOff[:n]; return n, L }, "offsets sized"},
		{"out-off-decreasing", func(c *CSR) (int, int) {
			off := append([]int64(nil), c.OutOff...)
			off[1], off[2] = off[2]+1, off[1]
			off[n] = int64(len(c.OutDst))
			off[0] = 0
			c.OutOff = off
			return n, L
		}, "decrease"},
		{"out-off-bad-end", func(c *CSR) (int, int) {
			off := append([]int64(nil), c.OutOff...)
			off[n]++
			c.OutOff = off
			return n, L
		}, "span"},
		{"dst-out-of-range", func(c *CSR) (int, int) {
			dst := append([]Vertex(nil), c.OutDst...)
			dst[0] = Vertex(n)
			c.OutDst = dst
			return n, L
		}, "out of range"},
		{"label-out-of-range", func(c *CSR) (int, int) {
			lbl := append([]Label(nil), c.OutLbl...)
			lbl[0] = -1
			c.OutLbl = lbl
			return n, L
		}, "out of range"},
		{"edge-count-mismatch", func(c *CSR) (int, int) {
			c.OutLbl = c.OutLbl[:len(c.OutLbl)-1]
			return n, L
		}, "labels for"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			csr := g.RawCSR()
			nn, ll := tc.mutate(&csr)
			_, err := AdoptCSR(nn, ll, csr, nil, nil)
			if err == nil {
				t.Fatal("corrupt CSR accepted")
			}
			if !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("error %q lacks %q", err, tc.errSub)
			}
		})
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := FromEdges(3, 2, []Edge{{0, 1, 0}, {1, 2, 1}})
	same := FromEdges(3, 2, []Edge{{1, 2, 1}, {0, 1, 0}})
	if a.Fingerprint() != same.Fingerprint() {
		t.Fatal("fingerprint depends on insertion order")
	}
	difLabel := FromEdges(3, 2, []Edge{{0, 1, 1}, {1, 2, 1}})
	if a.Fingerprint() == difLabel.Fingerprint() {
		t.Fatal("fingerprint blind to label change")
	}
	difEdge := FromEdges(3, 2, []Edge{{0, 1, 0}, {2, 1, 1}})
	if a.Fingerprint() == difEdge.Fingerprint() {
		t.Fatal("fingerprint blind to edge change")
	}
	moreV := FromEdges(4, 2, []Edge{{0, 1, 0}, {1, 2, 1}})
	if a.Fingerprint() == moreV.Fingerprint() {
		t.Fatal("fingerprint blind to vertex count")
	}
}
