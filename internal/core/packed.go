package core

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"math/bits"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// Bit-parallel, hash-consed MR-sets — the index's one resident and on-disk
// form.
//
// The paper's Lin/Lout sets are lists of (hub, mr) pairs. The packed form
// groups every per-vertex list by hub — one packedGroup per (vertex,
// side, hub) — and turns the hub's MR ids into a fixed-width bitset
// keyed by dictionary id: membership is a single AND/shift of one word
// instead of a scan over the hub's run. Identical MR-sets are hash-consed
// into a shared pool (hub-dominated graphs repeat a handful of MR-sets
// across thousands of vertices), so each distinct set is resident exactly
// once and a group references it by a 4-byte id.
//
// Build produces per-vertex []entry lists as a build-time intermediate;
// pack consumes them once and they are dropped. Everything that needs the
// (hub, mr) pairs back — inspection, validation — decodes them from the
// groups with entries. While both forms coexist (the end of a Build)
// verifyAgainst demands they are bit-for-bit equal.

// packedGroup is one (hub, MR-set) pair of a packed per-vertex list: the
// hub's access rank plus the id of the hash-consed bitset holding every MR
// the vertex carries for that hub. 8 bytes, the exact on-disk layout of the
// packed-groups snapshot section.
type packedGroup struct {
	hub int32
	set uint32
}

// setDesc locates one hash-consed MR-set in the ragged word pool: span
// words starting at words[off], covering bit positions [base*64,
// (base+span)*64) of the full dictionary-wide bitset. Storing only each
// set's occupied word window keeps the pool small when the dictionary is
// wide but individual sets are narrow (the common case: a hub run carries a
// handful of MRs out of thousands interned); a dense dictLen-wide layout
// would grow the pool with the dictionary instead of with the data. 12
// bytes, the exact on-disk layout of the set-desc snapshot sections.
type setDesc struct {
	off  uint32 // first word in the pool
	base uint32 // word index (mr >> 6) of words[off]
	span uint32 // occupied words, >= 1
}

// emptySet is the id of the MR-set with no members. It is never stored in
// the pool: has answers false for any id past the descriptors.
const emptySet = ^uint32(0)

// setPool is a pool of hash-consed, window-compressed MR bitsets: set s
// covers words[desc[s].off : .off+.span], bit i of word w meaning "MR id
// (desc[s].base+w)*64 + i is present". The packed groups and the tier
// filters' MR unions each own one.
type setPool struct {
	desc  []setDesc
	words []uint64
}

// has reports whether the pooled set contains mr — the bit-parallel
// membership test: a window bounds check, then one shift and AND.
func (sp *setPool) has(set uint32, mr labelseq.ID) bool {
	if uint64(set) >= uint64(len(sp.desc)) {
		return false // emptySet: compared unsigned, as int(set) is -1 where int is 32 bits
	}
	d := sp.desc[set]
	w := uint32(mr>>6) - d.base // unsigned: below-window wraps huge
	if w >= d.span {
		return false
	}
	return sp.words[d.off+w]>>(mr&63)&1 != 0
}

// sizeBytes is the pool's resident (and on-disk) size.
func (sp *setPool) sizeBytes() int64 {
	return int64(len(sp.desc))*12 + int64(len(sp.words))*8
}

// packed is the bit-parallel form of an Index's Lin/Lout lists. All Lout
// group lists come first, then all Lin lists, with one offset array per
// side, CSR fashion.
type packed struct {
	setPool
	groups []packedGroup // all Lout groups, then all Lin groups
	off    [2][]int32    // per side, len n+1; list(d, v) = groups[off[d][v]:off[d][v+1]]

	// Logical (hub, mr) entry counts per side — the paper's index size,
	// which SizeBytes and MaxIndexBytes are denominated in. Counted once at
	// construction because /stats asks per request.
	numEntries [2]int64
}

// list returns the packed side-d list of v.
func (p *packed) list(d side, v graph.Vertex) []packedGroup {
	return p.groups[p.off[d][v]:p.off[d][v+1]]
}

// groupHas reports whether list (hub-sorted, hubs unique) carries mr for
// hub: the binary search lands on at most one group and the membership test
// is a single bit probe. The search is spelled out rather than delegated to
// sort.Search so the probe stays closure-free.
func (p *packed) groupHas(list []packedGroup, hub int32, mr labelseq.ID) bool {
	i, j := 0, len(list)
	for i < j {
		h := int(uint(i+j) >> 1)
		if list[h].hub < hub {
			i = h + 1
		} else {
			j = h
		}
	}
	return i < len(list) && list[i].hub == hub && p.has(list[i].set, mr)
}

// joinGroups merge-joins two packed group lists and reports whether some
// common hub carries mr on both sides — Case 1 of Definition 4. Hubs are
// unique per list, so every step advances at least one cursor and a matched
// hub costs two bit probes.
func (p *packed) joinGroups(a, b []packedGroup, mr labelseq.ID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].hub < b[j].hub:
			i++
		case a[i].hub > b[j].hub:
			j++
		default:
			if p.has(a[i].set, mr) && p.has(b[j].set, mr) {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// entries decodes a group list back into the (hub, mr) entries it stands
// for: groups in list order (hubs ascending within one vertex's list), MR
// ids ascending within a hub.
func (p *packed) entries(list []packedGroup) iter.Seq[entry] {
	return func(yield func(entry) bool) {
		for _, g := range list {
			d := p.desc[g.set]
			for wi, word := range p.words[d.off : d.off+d.span] {
				for ; word != 0; word &= word - 1 {
					mr := (d.base+uint32(wi))<<6 | uint32(bits.TrailingZeros64(word))
					if !yield(entry{hub: g.hub, mr: labelseq.ID(mr)}) {
						return
					}
				}
			}
		}
	}
}

// count returns the number of entries list stands for: the popcount of
// every group's pooled set.
func (p *packed) count(list []packedGroup) int64 {
	total := 0
	for _, g := range list {
		d := p.desc[g.set]
		for _, word := range p.words[d.off : d.off+d.span] {
			total += bits.OnesCount64(word)
		}
	}
	return int64(total)
}

// countEntries fills the cached per-side entry counts. Groups share their
// hash-consed sets, so each set's popcount is taken once and every group
// adds its set's.
func (p *packed) countEntries() {
	pop := make([]int32, len(p.desc))
	for i, d := range p.desc {
		for _, word := range p.words[d.off : d.off+d.span] {
			pop[i] += int32(bits.OnesCount64(word))
		}
	}
	for _, d := range sides {
		off := p.off[d]
		for _, g := range p.groups[off[0]:off[len(off)-1]] {
			p.numEntries[d] += int64(pop[g.set])
		}
	}
}

// setWordsFor returns the pool set width for a dictionary of dictLen
// sequences: enough 64-bit words to key every MR id, at least one.
func setWordsFor(dictLen int) int {
	w := (dictLen + 63) / 64
	if w < 1 {
		w = 1
	}
	return w
}

// conser hash-conses MR-sets into a setPool: the one unique table behind
// both the per-hub sets of the packed groups (pack) and the per-vertex MR
// unions of the tier filters (tier). Ids are assigned in first-seen order,
// so equal input sequences always produce byte-identical pools.
type conser struct {
	pool setPool
	// table maps base (4 LE bytes) + the window's little-endian word bytes
	// to the pool id. base is part of the key because two sets with equal
	// windows at different dictionary offsets are different sets.
	table map[string]uint32
	tmp   []uint64 // dictionary-wide scratch bitset, all zero between calls
	key   []byte
}

func newConser(dictLen int) *conser {
	w := setWordsFor(dictLen)
	return &conser{
		table: make(map[string]uint32),
		tmp:   make([]uint64, w),
		key:   make([]byte, 4+w*8),
	}
}

// intern returns the pool id of the set of MR ids list carries, adding it
// to the pool when unseen. An empty list is emptySet and costs nothing.
func (c *conser) intern(list []entry) (uint32, error) {
	if len(list) == 0 {
		return emptySet, nil
	}
	first, last := len(c.tmp), 0
	for _, e := range list {
		w := int(e.mr >> 6)
		c.tmp[w] |= 1 << (e.mr & 63)
		first, last = min(first, w), max(last, w)
	}
	window := c.tmp[first : last+1]
	binary.LittleEndian.PutUint32(c.key, uint32(first))
	for wi, word := range window {
		binary.LittleEndian.PutUint64(c.key[4+wi*8:], word)
	}
	key := c.key[:4+len(window)*8]
	set, ok := c.table[string(key)]
	if !ok {
		if int64(len(c.table)) >= math.MaxInt32 ||
			int64(len(c.pool.words))+int64(len(window)) > math.MaxInt32 {
			return 0, fmt.Errorf("rlc: MR-set pool exceeds 2^31-1 sets or words")
		}
		set = uint32(len(c.table))
		c.table[string(key)] = set
		c.pool.desc = append(c.pool.desc, setDesc{
			off:  uint32(len(c.pool.words)),
			base: uint32(first),
			span: uint32(len(window)),
		})
		c.pool.words = append(c.pool.words, window...)
	}
	clear(window)
	return set, nil
}

// pack builds the packed form from per-vertex, hub-sorted entry lists
// (indexed by side, then vertex id). It is deterministic — Lout before Lin,
// vertices ascending, sets interned in first-seen order — so equal lists
// always produce byte-identical packed sections (the packed golden test pins
// this).
func pack(lists [2][][]entry, dictLen int) (*packed, error) {
	c := newConser(dictLen)
	p := &packed{}
	for _, d := range sides {
		n := len(lists[d])
		p.off[d] = make([]int32, n+1)
		for v, list := range lists[d] {
			p.off[d][v] = int32(len(p.groups))
			for i := 0; i < len(list); {
				j := i + 1
				for j < len(list) && list[j].hub == list[i].hub {
					j++
				}
				set, err := c.intern(list[i:j])
				if err != nil {
					return nil, err
				}
				p.groups = append(p.groups, packedGroup{hub: list[i].hub, set: set})
				i = j
			}
		}
		p.off[d][n] = int32(len(p.groups))
	}
	p.setPool = c.pool
	p.countEntries()
	return p, nil
}

// PackedStats summarizes the packed representation for reporting.
type PackedStats struct {
	// Groups is the number of (vertex, side, hub) groups — the packed
	// counterpart of the entry count.
	Groups int64
	// Sets is the number of distinct hash-consed MR-sets in the pool.
	Sets int
	// PoolWords is the total 64-bit words across every set's stored window.
	PoolWords int64
	// SizeBytes is the physical resident size of the index proper: groups,
	// descriptors, pool words, packed offsets, and the dictionary — where
	// Stats.SizeBytes is the paper's logical 8-bytes-per-entry accounting.
	SizeBytes int64
}

// PackedStats returns the packed representation's summary.
func (ix *Index) PackedStats() PackedStats {
	p := ix.packed
	return PackedStats{
		Groups:    int64(len(p.groups)),
		Sets:      len(p.desc),
		PoolWords: int64(len(p.words)),
		SizeBytes: int64(len(p.groups))*8 + p.sizeBytes() +
			int64(len(p.off[lout])+len(p.off[lin]))*4 + ix.dictBytes(),
	}
}

// verifyAgainst demands bit-for-bit equality between the packed form and
// the per-vertex entry lists it claims to stand for: identical hub
// sequences, every entry's MR bit set, and per-group popcounts equal to the
// run lengths (so the packed side holds no extra bits either). seal runs it
// at the end of every Build, the one place the two forms coexist.
func (p *packed) verifyAgainst(lists [2][][]entry) error {
	check := func(what side, list []entry, groups []packedGroup, v int) error {
		gi := 0
		for i := 0; i < len(list); {
			hub := list[i].hub
			if gi >= len(groups) || groups[gi].hub != hub {
				return fmt.Errorf("rlc: packed %s(%d) missing group for hub %d", what, v, hub)
			}
			g := groups[gi]
			runLen := int64(0)
			for ; i < len(list) && list[i].hub == hub; i++ {
				mr := list[i].mr
				if !p.has(g.set, mr) {
					return fmt.Errorf("rlc: packed %s(%d) misses entry (hub %d, mr %d)", what, v, hub, mr)
				}
				runLen++
			}
			if pop := p.count(groups[gi : gi+1]); pop != runLen {
				return fmt.Errorf("rlc: packed %s(%d) hub %d set has %d bits, entry run has %d", what, v, hub, pop, runLen)
			}
			gi++
		}
		if gi != len(groups) {
			return fmt.Errorf("rlc: packed %s(%d) has %d groups, entry list implies %d", what, v, len(groups), gi)
		}
		return nil
	}
	for v := range lists[lout] {
		for _, d := range sides {
			if err := check(d, lists[d][v], p.list(d, graph.Vertex(v)), v); err != nil {
				return err
			}
		}
	}
	return nil
}
