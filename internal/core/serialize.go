package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// Format v1 (little endian), the two-file index format this repository wrote
// before the v2 snapshot bundle. It is import-only: Load and LoadFile read
// it, nothing writes it, and testdata/fig2_k2_v1.rlc must load forever. To
// migrate a file, load it against its graph and save a bundle:
//
//	ix, err := LoadFile("g.rlc", g)
//	err = ix.SaveSnapshotFile("g.rlcs")
//
//	magic "RLCX" | version u32 | k u32 | n u64 | labels u32 | edges u64
//	dict:    count u32, then per sequence: len u8, labels i32...
//	order:   n x i32
//	per vertex v: |Lout(v)| u32, entries (hub i32, mr u32)...,
//	              |Lin(v)|  u32, entries ...
//
// Lists are hub-sorted; the order of MRs within one hub's run carries no
// meaning (Load checks hub-sortedness only). The graph itself is not
// embedded; Load verifies that the supplied graph has the same shape as the
// one the index was built from.

const (
	magic   = "RLCX"
	version = 1
)

// Load deserializes a v1 index and binds it to g, which must have the same
// vertex count, label count and edge count as the graph the index was built
// from.
func Load(r io.Reader, g *graph.Graph) (*Index, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("rlc: load: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("rlc: load: bad magic %q", head)
	}
	le := binary.LittleEndian
	var err error
	readU32 := func() uint32 {
		var v uint32
		if err == nil {
			err = binary.Read(br, le, &v)
		}
		return v
	}
	readI32 := func() int32 {
		var v int32
		if err == nil {
			err = binary.Read(br, le, &v)
		}
		return v
	}
	readU64 := func() uint64 {
		var v uint64
		if err == nil {
			err = binary.Read(br, le, &v)
		}
		return v
	}

	if v := readU32(); err == nil && v != version {
		return nil, fmt.Errorf("rlc: load: unsupported version %d", v)
	}
	k := int(readU32())
	n := int(readU64())
	labels := int(readU32())
	edges := int(readU64())
	if err != nil {
		return nil, fmt.Errorf("rlc: load: %w", err)
	}
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("rlc: load: bad k %d", k)
	}
	// v1 files predate the graph fingerprint, so only the shape triple the
	// format records can be verified here; the v2 snapshot bundle embeds the
	// full fingerprint (including the edge hash) and is checked by
	// Snapshot.Verify. Either way a wrong graph surfaces as the same typed
	// ErrGraphMismatch.
	if n != g.NumVertices() || labels != g.NumLabels() || edges != g.NumEdges() {
		return nil, fmt.Errorf("rlc: load: %w: index built for graph with %d vertices/%d labels/%d edges, supplied graph has %d/%d/%d",
			ErrGraphMismatch, n, labels, edges, g.NumVertices(), g.NumLabels(), g.NumEdges())
	}

	numLabels := labels
	if numLabels == 0 {
		numLabels = 1
	}
	dict, derr := labelseq.NewDict(numLabels, k)
	if derr != nil {
		return nil, fmt.Errorf("rlc: load: %w", derr)
	}
	ix := &Index{
		g:     g,
		k:     k,
		opts:  Options{K: k},
		dict:  dict,
		order: make([]graph.Vertex, n),
		rank:  make([]int32, n),
	}
	// Decoded per-vertex lists, packed by seal once the whole file validated.
	in := make([][]entry, n)
	out := make([][]entry, n)

	dictLen := int(readU32())
	for i := 0; i < dictLen; i++ {
		var slen byte
		if err == nil {
			slen, err = br.ReadByte()
		}
		if err != nil {
			return nil, fmt.Errorf("rlc: load: dict: %w", err)
		}
		if slen == 0 || int(slen) > k {
			return nil, fmt.Errorf("rlc: load: dict sequence of %d labels, want 1..%d", slen, k)
		}
		seq := make(labelseq.Seq, slen)
		for j := range seq {
			l := readI32()
			if l < 0 || int(l) >= numLabels {
				return nil, fmt.Errorf("rlc: load: dict label %d out of range", l)
			}
			seq[j] = labelseq.Label(l)
		}
		if err != nil {
			return nil, fmt.Errorf("rlc: load: dict: %w", err)
		}
		if got := ix.dict.Intern(seq); int(got) != i {
			return nil, fmt.Errorf("rlc: load: duplicate dict sequence %v", seq)
		}
	}
	for i := 0; i < n; i++ {
		v := readI32()
		if err != nil {
			return nil, fmt.Errorf("rlc: load: order: %w", err)
		}
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("rlc: load: order vertex %d out of range", v)
		}
		ix.order[i] = v
		ix.rank[v] = int32(i)
	}
	for v := 0; v < n; v++ {
		for side := 0; side < 2; side++ {
			count := int(readU32())
			if err != nil {
				return nil, fmt.Errorf("rlc: load: entries: %w", err)
			}
			if count < 0 || count > n*dictLen+1 {
				return nil, fmt.Errorf("rlc: load: implausible entry count %d", count)
			}
			list := make([]entry, count)
			prev := int32(-1)
			for i := range list {
				hub := readI32()
				mr := readU32()
				if err != nil {
					return nil, fmt.Errorf("rlc: load: entries: %w", err)
				}
				if hub < prev {
					return nil, fmt.Errorf("rlc: load: entries not hub-sorted")
				}
				prev = hub
				if hub < 0 || int(hub) >= n || int(mr) >= dictLen {
					return nil, fmt.Errorf("rlc: load: entry (%d, %d) out of range", hub, mr)
				}
				list[i] = entry{hub: hub, mr: labelseq.ID(mr)}
			}
			if side == 0 {
				out[v] = list
			} else {
				in[v] = list
			}
		}
	}
	// Safe on hostile input: every hub and mr above was range-checked, and a
	// list that repeats an entry fails seal's packed == lists check.
	if err := ix.seal(out, in); err != nil {
		return nil, fmt.Errorf("rlc: load: %w", err)
	}
	return ix, nil
}

// LoadFile reads a v1 index from path and binds it to g.
func LoadFile(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, g)
}
