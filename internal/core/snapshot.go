package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
	"github.com/g-rpqs/rlc-go/internal/snapshot"
)

// Snapshot bundle (format v2): one self-contained, self-describing file
// holding everything a server needs — the graph's out-adjacency (the
// in-adjacency is its transpose, derived at open), the packed index groups
// with their per-side offsets and set pool, the access order, and the
// label-sequence dictionary — as checksummed sections of the
// internal/snapshot container.
// The large arrays are laid out so OpenSnapshot can hand out zero-copy
// views of the bundle bytes it read; only the small sections (meta, dict,
// names) are decoded into structures of their own. See ARCHITECTURE.md,
// "Snapshot format v2", for the full byte layout.
//
// Section ids:
const (
	secMeta        = 1  // fixed 56-byte header: shape, fingerprint, counts
	secGraphOutOff = 2  // int64[n+1]
	secGraphOutDst = 3  // int32[m]
	secGraphOutLbl = 4  // int32[m]
	secDict        = 8  // per sequence: len u8, labels i32...
	secOrder       = 9  // int32[n], rank -> vertex id
	secVertexNames = 13 // optional: count u32, then len u32 + bytes each
	secLabelNames  = 14 // optional

	// Ids 5-7 held a copy of the graph's in-adjacency, and ids 10-12 the
	// entry arrays of bundles written before the packed form became the
	// index; they are never written and, like any id not listed here,
	// checksummed by Verify but ignored when present.

	// Packed bit-parallel MR-set sections (see packed.go): the index. All
	// six are required. On little-endian hosts they are served zero-copy.
	secPackedMeta    = 15 // fixed 24 bytes: setCount u32, reserved u32, groupCount u64, wordCount u64
	secPackedGroups  = 16 // packedGroup[groupCount]: (hub i32, set u32)
	secPackedOutOff  = 17 // int32[n+1]
	secPackedInOff   = 18 // int32[n+1]
	secPackedSets    = 19 // uint64[wordCount], the hash-consed windowed word pool
	secPackedSetDesc = 20 // setDesc[setCount]: (off u32, base u32, span u32)

	// Size-budgeted tier sections (see tiers.go). Optional as a block: an
	// unbudgeted bundle carries none of them, a tiered bundle carries all
	// six, and a partially stripped bundle is corrupt. The demoted-vertex
	// count is n - retainedRanks; demoted slot arrays index by rank -
	// retainedRanks.
	secTierMeta     = 21 // fixed 32 bytes: retainedRanks u32, bloomWords u32, setCount u32, reserved u32, wordCount u64, budget u64
	secTierUnionOut = 22 // uint32[numDemoted], union set ids (0xFFFFFFFF = empty dropped list)
	secTierUnionIn  = 23 // uint32[numDemoted]
	secTierSets     = 24 // uint64[wordCount], the tier-local hash-consed union pool
	secTierSetDesc  = 25 // setDesc[setCount]: (off u32, base u32, span u32)
	secTierBloom    = 26 // uint64[2*numDemoted*bloomWords], per-vertex out/in bloom blocks interleaved
)

// metaSize is the exact size of the meta section.
const metaSize = 56

// packedMetaSize is the exact size of the packed-meta section.
const packedMetaSize = 24

// tierMetaSize is the exact size of the tier-meta section.
const tierMetaSize = 32

// meta flag bits.
const (
	flagVertexNames = 1 << 0
	flagLabelNames  = 1 << 1
)

// ErrGraphMismatch is returned by snapshot verification when the fingerprint
// a bundle records does not match the graph it embeds — an index bound to a
// graph other than the one it was built from.
var ErrGraphMismatch = errors.New("rlc: index was built for a different graph")

// encodeMeta renders the fixed meta section.
func encodeMeta(k int, fp graph.Fingerprint, entryCount int64, dictLen int, flags uint32) []byte {
	le := binary.LittleEndian
	b := make([]byte, metaSize)
	le.PutUint32(b[0:], uint32(k))
	le.PutUint32(b[4:], uint32(fp.NumLabels))
	le.PutUint64(b[8:], uint64(fp.N))
	le.PutUint64(b[16:], uint64(fp.M))
	le.PutUint64(b[24:], fp.EdgeHash)
	le.PutUint64(b[32:], uint64(entryCount))
	le.PutUint32(b[40:], uint32(dictLen))
	le.PutUint32(b[44:], flags)
	// b[48:56] reserved, zero.
	return b
}

type snapshotMeta struct {
	k          int
	fp         graph.Fingerprint
	entryCount int64
	dictLen    int
	flags      uint32
}

func decodeMeta(b []byte) (snapshotMeta, error) {
	if len(b) != metaSize {
		return snapshotMeta{}, snapshot.Corruptf("meta section is %d bytes, want %d", len(b), metaSize)
	}
	le := binary.LittleEndian
	const maxI32 = 1<<31 - 1
	// Range-check the 64-bit counts before int takes them: where int is 32
	// bits the conversion would drop their high bits.
	if n, e := le.Uint64(b[8:]), le.Uint64(b[16:]); n > maxI32 || e > maxI32 {
		return snapshotMeta{}, snapshot.Corruptf("implausible shape: %d vertices, %d edges", n, e)
	}
	m := snapshotMeta{
		k: int(le.Uint32(b[0:])),
		fp: graph.Fingerprint{
			NumLabels: int(int32(le.Uint32(b[4:]))),
			N:         int(le.Uint64(b[8:])),
			M:         int(le.Uint64(b[16:])),
			EdgeHash:  le.Uint64(b[24:]),
		},
		entryCount: int64(le.Uint64(b[32:])),
		dictLen:    int(le.Uint32(b[40:])),
		flags:      le.Uint32(b[44:]),
	}
	if m.k < 1 || m.k > MaxK {
		return snapshotMeta{}, snapshot.Corruptf("bad k %d", m.k)
	}
	if m.fp.NumLabels < 0 {
		return snapshotMeta{}, snapshot.Corruptf("implausible shape %v", m.fp)
	}
	if m.entryCount < 0 || m.entryCount > maxI32 {
		return snapshotMeta{}, snapshot.Corruptf("implausible entry count %d", m.entryCount)
	}
	if m.dictLen < 0 || m.dictLen > maxI32 {
		return snapshotMeta{}, snapshot.Corruptf("implausible dictionary size %d", m.dictLen)
	}
	return m, nil
}

// WriteSnapshot serializes the index and its graph as a v2 snapshot bundle.
// The bundle is self-contained: OpenSnapshot needs no separate graph file
// and no rebuild-time options.
func (ix *Index) WriteSnapshot(w io.Writer) error {
	g := ix.g
	fp := g.Fingerprint()
	var flags uint32
	if g.VertexNames() != nil {
		flags |= flagVertexNames
	}
	if g.LabelNames() != nil {
		flags |= flagLabelNames
	}

	sw := snapshot.NewWriter()
	sw.Add(secMeta, encodeMeta(ix.k, fp, ix.NumEntries(), ix.dict.Len(), flags))
	csr := g.RawCSR()
	sw.Add(secGraphOutOff, snapshot.Bytes(csr.OutOff))
	sw.Add(secGraphOutDst, snapshot.Bytes(csr.OutDst))
	sw.Add(secGraphOutLbl, snapshot.Bytes(csr.OutLbl))
	sw.Add(secDict, encodeDict(ix.dict))
	sw.Add(secOrder, snapshot.Bytes(ix.order))
	if flags&flagVertexNames != 0 {
		sw.Add(secVertexNames, encodeNames(g.VertexNames()))
	}
	if flags&flagLabelNames != 0 {
		sw.Add(secLabelNames, encodeNames(g.LabelNames()))
	}
	le := binary.LittleEndian
	p := ix.packed
	pm := make([]byte, packedMetaSize)
	le.PutUint32(pm[0:], uint32(len(p.desc)))
	le.PutUint64(pm[8:], uint64(len(p.groups)))
	le.PutUint64(pm[16:], uint64(len(p.words)))
	sw.Add(secPackedMeta, pm)
	sw.Add(secPackedGroups, snapshot.Bytes(p.groups))
	sw.Add(secPackedOutOff, snapshot.Bytes(p.off[lout]))
	sw.Add(secPackedInOff, snapshot.Bytes(p.off[lin]))
	sw.Add(secPackedSets, snapshot.Bytes(p.words))
	sw.Add(secPackedSetDesc, snapshot.Bytes(p.desc))
	if tr := ix.tiers; tr != nil {
		tm := make([]byte, tierMetaSize)
		le.PutUint32(tm[0:], uint32(tr.retainedRanks))
		le.PutUint32(tm[4:], tr.bloomWords)
		le.PutUint32(tm[8:], uint32(len(tr.desc)))
		// tm[12:16] reserved, zero.
		le.PutUint64(tm[16:], uint64(len(tr.words)))
		le.PutUint64(tm[24:], uint64(tr.budget))
		sw.Add(secTierMeta, tm)
		sw.Add(secTierUnionOut, snapshot.Bytes(tr.union[lout]))
		sw.Add(secTierUnionIn, snapshot.Bytes(tr.union[lin]))
		sw.Add(secTierSets, snapshot.Bytes(tr.words))
		sw.Add(secTierSetDesc, snapshot.Bytes(tr.desc))
		sw.Add(secTierBloom, snapshot.Bytes(tr.bloom))
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := sw.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveSnapshotFile writes the v2 snapshot bundle to path, atomically: the
// bundle is rendered to a temporary file in the same directory and renamed
// into place, so a reader opening path sees the old bundle or the new one,
// never a half-written file.
func (ix *Index) SaveSnapshotFile(path string) error {
	return saveAtomic(path, ix.WriteSnapshot)
}

// saveAtomic runs write against a temporary file in path's directory, syncs
// it and renames it to path.
func saveAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(err)
	}
	// CreateTemp opens 0600; widen to the 0644 an os.Create'd artifact gets
	// so a separately-privileged server process can read the bundle.
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	// The rename only publishes the bytes; sync first so a crash cannot
	// leave a successfully renamed but half-written bundle.
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Snapshot is an open v2 bundle: a graph and the index built over it, both
// views of the bundle bytes held in the heap. They stay valid as long as
// they are referenced, whatever happens to the file afterwards.
type Snapshot struct {
	f    *snapshot.File
	ix   *Index
	g    *graph.Graph
	meta snapshotMeta
	path string
}

// OpenSnapshot reads a v2 bundle file into memory and adopts its large
// sections zero-copy; beyond the read, open-time work is structural
// validation only — O(n + m) word scans with no per-entry decoding or
// allocation. Payload checksums are deliberately not verified here; call
// Verify before trusting a bundle from an untrusted medium or before
// hot-swapping it into a server.
func OpenSnapshot(path string) (*Snapshot, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := newSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.path = path
	return s, nil
}

// OpenVerifiedSnapshot opens the bundle at path and runs Verify — how file
// bytes become a serving generation or leave a build step.
func OpenVerifiedSnapshot(path string) (*Snapshot, error) {
	s, err := OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	if err := s.Verify(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenSnapshotBytes opens a v2 bundle held in memory (an embedded build
// artifact, a just-fetched blob). The Snapshot aliases data, which must stay
// unchanged while the Snapshot is in use.
func OpenSnapshotBytes(data []byte) (*Snapshot, error) {
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		return nil, err
	}
	s, err := newSnapshot(f)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// newSnapshot adopts the bundle's sections into a live Index.
func newSnapshot(f *snapshot.File) (*Snapshot, error) {
	metaBytes, ok := f.Section(secMeta)
	if !ok {
		return nil, snapshot.Corruptf("missing meta section")
	}
	meta, err := decodeMeta(metaBytes)
	if err != nil {
		return nil, err
	}
	n, m := meta.fp.N, meta.fp.M

	// Graph sections → zero-copy adopted out-adjacency; AdoptCSR derives
	// the in-adjacency from it.
	var csr graph.CSR
	if csr.OutOff, err = snapshot.Array[int64](f, secGraphOutOff, int64(n)+1, "graph out-offset"); err != nil {
		return nil, err
	}
	if csr.OutDst, err = snapshot.Array[graph.Vertex](f, secGraphOutDst, int64(m), "graph out-dst"); err != nil {
		return nil, err
	}
	if csr.OutLbl, err = snapshot.Array[labelseq.Label](f, secGraphOutLbl, int64(m), "graph out-label"); err != nil {
		return nil, err
	}

	var vnames, lnames []string
	if meta.flags&flagVertexNames != 0 {
		b, ok := f.Section(secVertexNames)
		if !ok {
			return nil, snapshot.Corruptf("missing vertex-name section")
		}
		if vnames, err = decodeNames(b, n, "vertex"); err != nil {
			return nil, err
		}
	}
	if meta.flags&flagLabelNames != 0 {
		b, ok := f.Section(secLabelNames)
		if !ok {
			return nil, snapshot.Corruptf("missing label-name section")
		}
		if lnames, err = decodeNames(b, meta.fp.NumLabels, "label"); err != nil {
			return nil, err
		}
	}

	g, err := graph.AdoptCSR(n, meta.fp.NumLabels, csr, vnames, lnames)
	if err != nil {
		return nil, snapshot.Corruptf("%v", err)
	}

	// Dictionary (small, heap-decoded).
	dictBytes, ok := f.Section(secDict)
	if !ok {
		return nil, snapshot.Corruptf("missing dictionary section")
	}
	dict, err := decodeDict(dictBytes, meta.dictLen, meta.fp.NumLabels, meta.k)
	if err != nil {
		return nil, err
	}

	// Access order: must be a permutation of [0, n); rank is its inverse.
	order, err := snapshot.Array[graph.Vertex](f, secOrder, int64(n), "order")
	if err != nil {
		return nil, err
	}
	rank := make([]int32, n)
	for i := range rank {
		rank[i] = -1
	}
	for i, v := range order {
		if v < 0 || int(v) >= n {
			return nil, snapshot.Corruptf("order[%d] = %d out of range [0, %d)", i, v, n)
		}
		if rank[v] != -1 {
			return nil, snapshot.Corruptf("order lists vertex %d twice", v)
		}
		rank[v] = int32(i)
	}

	p, err := openPacked(f, n, meta.dictLen)
	if err != nil {
		return nil, err
	}
	if got := p.numEntries[lout] + p.numEntries[lin]; got != meta.entryCount {
		return nil, snapshot.Corruptf("packed sets hold %d entries, meta records %d", got, meta.entryCount)
	}

	ix := &Index{
		g:      g,
		k:      meta.k,
		dict:   dict,
		order:  order,
		rank:   rank,
		packed: p,
	}
	tr, err := openTiers(f, n, meta.dictLen)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		initTierRuntime(ix, tr)
	}
	return &Snapshot{f: f, ix: ix, g: g, meta: meta}, nil
}

// openPacked adopts the packed bit-parallel sections — the index. All six
// are required, so a bundle without them (or partially stripped of them)
// surfaces as corrupt.
func openPacked(f *snapshot.File, n, dictLen int) (*packed, error) {
	pm, err := snapshot.Array[byte](f, secPackedMeta, packedMetaSize, "packed-meta")
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	setCount := int64(le.Uint32(pm[0:]))
	reserved := le.Uint32(pm[4:])
	groupCount := int64(le.Uint64(pm[8:]))
	wordCount := int64(le.Uint64(pm[16:]))
	const maxI32 = 1<<31 - 1
	if reserved != 0 {
		return nil, snapshot.Corruptf("packed-meta reserved field is %d, want 0", reserved)
	}
	if setCount > maxI32 || groupCount > maxI32 || wordCount > maxI32 {
		return nil, snapshot.Corruptf("implausible packed counts: %d sets, %d groups, %d words", setCount, groupCount, wordCount)
	}
	p := &packed{}
	if p.groups, err = snapshot.Array[packedGroup](f, secPackedGroups, groupCount, "packed-group"); err != nil {
		return nil, err
	}
	if p.off[lout], err = snapshot.Array[int32](f, secPackedOutOff, int64(n)+1, "packed out-offset"); err != nil {
		return nil, err
	}
	if p.off[lin], err = snapshot.Array[int32](f, secPackedInOff, int64(n)+1, "packed in-offset"); err != nil {
		return nil, err
	}
	if p.words, err = snapshot.Array[uint64](f, secPackedSets, wordCount, "packed-set pool"); err != nil {
		return nil, err
	}
	if p.desc, err = snapshot.Array[setDesc](f, secPackedSetDesc, setCount, "packed-set descriptor"); err != nil {
		return nil, err
	}
	if err = validatePool("packed", p.setPool, dictLen); err != nil {
		return nil, err
	}
	if out, in := p.off[lout], p.off[lin]; out[0] != 0 || out[n] != in[0] || int64(in[n]) != groupCount {
		return nil, snapshot.Corruptf("packed offsets span [%d..%d, %d..%d], want [0..x, x..%d]",
			out[0], out[n], in[0], in[n], groupCount)
	}
	// Per-vertex group lists must have strictly increasing in-range hubs —
	// groupHas's binary search assumes uniqueness — and every set id must
	// point into the pool.
	for _, off := range p.off {
		for v := 0; v < n; v++ {
			if off[v] > off[v+1] || int64(off[v+1]) > groupCount {
				return nil, snapshot.Corruptf("packed offsets decrease or overshoot at vertex %d", v)
			}
			prev := int32(-1)
			for _, pg := range p.groups[off[v]:off[v+1]] {
				if pg.hub <= prev {
					return nil, snapshot.Corruptf("packed group list of vertex %d not strictly hub-sorted", v)
				}
				prev = pg.hub
				if pg.hub < 0 || int(pg.hub) >= n || int64(pg.set) >= setCount {
					return nil, snapshot.Corruptf("packed group (%d, %d) of vertex %d out of range", pg.hub, pg.set, v)
				}
			}
		}
	}
	p.countEntries()
	return p, nil
}

// validatePool checks an adopted set pool: every descriptor's window must fit
// the dictionary's word range and its stored words must lie inside the pool
// (has probes words[off+w] for w < span without further checks), and no bit
// may name an MR id past the dictionary (entries decodes every bit).
func validatePool(what string, sp setPool, dictLen int) error {
	wMax := int64(setWordsFor(dictLen))
	for i, d := range sp.desc {
		if d.span == 0 || int64(d.base)+int64(d.span) > wMax {
			return snapshot.Corruptf("%s set %d window [%d, +%d) outside dictionary word range %d", what, i, d.base, d.span, wMax)
		}
		if int64(d.off)+int64(d.span) > int64(len(sp.words)) {
			return snapshot.Corruptf("%s set %d words [%d, +%d) outside pool of %d", what, i, d.off, d.span, len(sp.words))
		}
		if int64(d.base)+int64(d.span) == wMax && dictLen < int(wMax)*64 &&
			sp.words[d.off+d.span-1]>>(dictLen&63) != 0 {
			return snapshot.Corruptf("%s set %d holds an MR id past the dictionary's %d", what, i, dictLen)
		}
	}
	return nil
}

// openTiers adopts the optional size-budgeted tier sections. A bundle
// either carries the whole block or none of it: absent
// tier-meta means an untiered bundle (nil); a present tier-meta makes the
// other five sections required and structurally validated, so a partially
// stripped or internally inconsistent tier block surfaces as corrupt instead
// of silently demoting wrong vertices.
func openTiers(f *snapshot.File, n, dictLen int) (*tiers, error) {
	tm, ok := f.Section(secTierMeta)
	if !ok {
		return nil, nil
	}
	if len(tm) != tierMetaSize {
		return nil, snapshot.Corruptf("tier-meta section is %d bytes, want %d", len(tm), tierMetaSize)
	}
	le := binary.LittleEndian
	retained := int64(le.Uint32(tm[0:]))
	bloomWords := le.Uint32(tm[4:])
	setCount := int64(le.Uint32(tm[8:]))
	reserved := le.Uint32(tm[12:])
	wordCount := int64(le.Uint64(tm[16:]))
	budget := int64(le.Uint64(tm[24:]))
	const maxI32 = 1<<31 - 1
	if reserved != 0 {
		return nil, snapshot.Corruptf("tier-meta reserved field is %d, want 0", reserved)
	}
	if retained >= int64(n) {
		// tier() only tiers when it demotes; retainedRanks == n would make
		// every slot array empty and the block meaningless.
		return nil, snapshot.Corruptf("tier-meta retains %d of %d ranks: a tiered bundle must demote at least one vertex", retained, n)
	}
	if bloomWords == 0 || bloomWords > 64 || bloomWords&(bloomWords-1) != 0 {
		return nil, snapshot.Corruptf("tier bloom width %d words is not a power of two in [1, 64]", bloomWords)
	}
	if budget <= 0 {
		return nil, snapshot.Corruptf("tier-meta budget %d is not positive", budget)
	}
	if setCount > maxI32 || wordCount > maxI32 {
		return nil, snapshot.Corruptf("implausible tier counts: %d sets, %d words", setCount, wordCount)
	}
	d := int64(n) - retained
	tr := &tiers{retainedRanks: int32(retained), budget: budget, bloomWords: bloomWords}
	var err error
	if tr.union[lout], err = snapshot.Array[uint32](f, secTierUnionOut, d, "tier union-out"); err != nil {
		return nil, err
	}
	if tr.union[lin], err = snapshot.Array[uint32](f, secTierUnionIn, d, "tier union-in"); err != nil {
		return nil, err
	}
	if tr.words, err = snapshot.Array[uint64](f, secTierSets, wordCount, "tier-set pool"); err != nil {
		return nil, err
	}
	if tr.desc, err = snapshot.Array[setDesc](f, secTierSetDesc, setCount, "tier-set descriptor"); err != nil {
		return nil, err
	}
	if tr.bloom, err = snapshot.Array[uint64](f, secTierBloom, 2*d*int64(bloomWords), "tier bloom"); err != nil {
		return nil, err
	}
	if err = validatePool("tier", tr.setPool, dictLen); err != nil {
		return nil, err
	}
	// Every slot's set id must be a real descriptor or emptySet.
	for _, slots := range tr.union {
		for i, set := range slots {
			if set != emptySet && int64(set) >= setCount {
				return nil, snapshot.Corruptf("tier union set id %d of slot %d outside pool of %d sets", set, i, setCount)
			}
		}
	}
	return tr, nil
}

// Index returns the snapshot's index.
func (s *Snapshot) Index() *Index { return s.ix }

// Graph returns the snapshot's embedded graph.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Path returns the file the snapshot was opened from ("" for OpenSnapshotBytes).
func (s *Snapshot) Path() string { return s.path }

// SizeBytes returns the byte size of the open bundle.
func (s *Snapshot) SizeBytes() int64 { return s.f.Size() }

// Bytes returns the complete raw bundle the index and graph are views of.
// It is how the replication layer ships the exact serving bundle to
// followers without a re-serialization: the bytes are already checksummed,
// fingerprinted, and self-contained. The slice must not be mutated.
func (s *Snapshot) Bytes() []byte { return s.f.Bytes() }

// SaveFile writes the bundle's bytes to path as SaveSnapshotFile does: to a
// temporary file that is synced and renamed into place.
func (s *Snapshot) SaveFile(path string) error {
	return saveAtomic(path, func(w io.Writer) error {
		_, err := w.Write(s.Bytes())
		return err
	})
}

// K returns the recursive k the snapshot's index supports.
func (s *Snapshot) K() int { return s.meta.k }

// Fingerprint returns the embedded graph fingerprint recorded at build time.
func (s *Snapshot) Fingerprint() graph.Fingerprint { return s.meta.fp }

// Sections lists the bundle's section table (the rlcinspect dump).
func (s *Snapshot) Sections() []snapshot.SectionInfo { return s.f.Sections() }

// VerifySection checks one section's payload checksum by container id.
func (s *Snapshot) VerifySection(id uint32) error { return s.f.VerifySection(id) }

// Verify runs the full integrity pass that OpenSnapshot skips: every
// section's checksum, then VerifyContents. Open-time structural validation
// makes a corrupt bundle safe (queries cannot crash); Verify makes it
// trustworthy (bit flips inside in-range values are caught too). The serving
// layer runs it before hot-swapping a bundle in.
func (s *Snapshot) Verify() error {
	if err := s.f.VerifyAll(); err != nil {
		return err
	}
	return s.VerifyContents()
}

// VerifyContents is the part of Verify that checksums cannot do — a bundle
// assembled from mismatched halves checksums clean. It recomputes the
// embedded graph's fingerprint against the one recorded in the meta section
// and checks that a tier block's retention split agrees with the packed
// groups (demoted vertices have none). Callers that checksum sections
// themselves (rlcinspect, one VerifySection per table row) run it after.
func (s *Snapshot) VerifyContents() error {
	if got := s.g.Fingerprint(); got != s.meta.fp {
		return fmt.Errorf("%w: %w: bundle records %v, embedded graph hashes to %v",
			snapshot.ErrCorrupt, ErrGraphMismatch, s.meta.fp, got)
	}
	if err := s.ix.verifyTiers(); err != nil {
		return fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
	}
	return nil
}

// Close releases nothing and returns nil: the bundle bytes are heap memory
// the garbage collector reclaims once neither the Snapshot nor its Index or
// Graph is referenced.
func (s *Snapshot) Close() error { return nil }

// encodeDict renders the dictionary section: per interned sequence, a u8
// length followed by that many little-endian i32 labels; the meta section
// carries the count.
func encodeDict(d *labelseq.Dict) []byte {
	var out []byte
	var tmp [4]byte
	for i := 0; i < d.Len(); i++ {
		seq := d.Seq(labelseq.ID(i))
		out = append(out, byte(len(seq)))
		for _, l := range seq {
			binary.LittleEndian.PutUint32(tmp[:], uint32(l))
			out = append(out, tmp[:]...)
		}
	}
	return out
}

// decodeDict rebuilds the interning dictionary, enforcing its invariants:
// lengths within 1..k, labels within the label set, no duplicate sequences,
// and no trailing bytes.
func decodeDict(b []byte, dictLen, numLabels, k int) (*labelseq.Dict, error) {
	coderLabels := numLabels
	if coderLabels == 0 {
		coderLabels = 1
	}
	dict, err := labelseq.NewDict(coderLabels, k)
	if err != nil {
		return nil, snapshot.Corruptf("dictionary: %v", err)
	}
	pos := 0
	for i := 0; i < dictLen; i++ {
		if pos >= len(b) {
			return nil, snapshot.Corruptf("dictionary truncated at sequence %d", i)
		}
		slen := int(b[pos])
		pos++
		if slen == 0 || slen > k {
			return nil, snapshot.Corruptf("dictionary sequence %d has %d labels, want 1..%d", i, slen, k)
		}
		if pos+4*slen > len(b) {
			return nil, snapshot.Corruptf("dictionary truncated inside sequence %d", i)
		}
		seq := make(labelseq.Seq, slen)
		for j := range seq {
			l := int32(binary.LittleEndian.Uint32(b[pos:]))
			pos += 4
			if l < 0 || int(l) >= coderLabels {
				return nil, snapshot.Corruptf("dictionary label %d out of range", l)
			}
			seq[j] = labelseq.Label(l)
		}
		if got := dict.Intern(seq); int(got) != i {
			return nil, snapshot.Corruptf("duplicate dictionary sequence %v", seq)
		}
	}
	if pos != len(b) {
		return nil, snapshot.Corruptf("%d trailing bytes after the dictionary", len(b)-pos)
	}
	return dict, nil
}

// encodeNames renders a name table: count u32, then per name a u32 length
// and the raw bytes.
func encodeNames(names []string) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(names)))
	out := append([]byte(nil), tmp[:]...)
	for _, s := range names {
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(s)))
		out = append(out, tmp[:]...)
		out = append(out, s...)
	}
	return out
}

// decodeNames parses a name table, which must hold exactly want names.
func decodeNames(b []byte, want int, what string) ([]string, error) {
	if len(b) < 4 {
		return nil, snapshot.Corruptf("%s-name section truncated", what)
	}
	count := int(binary.LittleEndian.Uint32(b))
	if count != want {
		return nil, snapshot.Corruptf("%d %s names for %d ids", count, what, want)
	}
	pos := 4
	names := make([]string, count)
	for i := range names {
		if pos+4 > len(b) {
			return nil, snapshot.Corruptf("%s-name section truncated at name %d", what, i)
		}
		l := int(binary.LittleEndian.Uint32(b[pos:]))
		pos += 4
		if l < 0 || pos+l > len(b) {
			return nil, snapshot.Corruptf("%s name %d overruns the section", what, i)
		}
		names[i] = string(b[pos : pos+l])
		pos += l
	}
	if pos != len(b) {
		return nil, snapshot.Corruptf("%d trailing bytes after the %s names", len(b)-pos, what)
	}
	return names, nil
}
