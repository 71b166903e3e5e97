package server

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/dynamic"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/hybrid"
)

// state is one immutable serving generation: a snapshot bundle, the index
// and graph that are views of its bytes, the hybrid-evaluator pool, and the
// delta overlay accepting writes against this base (mutable servers only).
// Every generation is a bundle, whether it was read from disk, shipped by a
// leader, or rendered from an index built in this process. Everything that
// must change together on a hot reload lives here, so a request that loaded
// one generation uses it for its whole lifetime and can never observe a new
// index through an old overlay (or vice versa).
type state struct {
	ix     *core.Index
	g      *graph.Graph
	src    *core.Snapshot // the bundle ix and g are views of
	gen    uint64
	source string // human-readable origin for /stats

	// uid names this generation uniquely within the process. gen does not:
	// it counts per Store, and several Servers in one process share the
	// pooled /batch scratch whose constraint table uid keys.
	uid uint64

	// epoch and seqBase place this generation on the replication timeline:
	// epoch counts completed folds (leader-side or adopted), and seqBase is
	// the global insert sequence already folded into this generation's
	// base. Journal position j of this generation's overlay is global
	// sequence seqBase+j, so the mapping is immutable per generation — a
	// reader holding the state can translate without racing a fold.
	epoch   uint64
	seqBase uint64

	// epochHdr is the X-Rlc-Epoch value of every reply from this generation
	// and seqHdr the X-Rlc-Seq value of one without an overlay, whose
	// sequence never moves; both are assigned into header maps as they are
	// and never written again.
	epochHdr, seqHdr []string

	// fp is the compact fingerprint of the base graph this generation
	// serves, read from the bundle's meta and formatted once — the leader's
	// segment long poll reads it every few milliseconds. Replication
	// handshakes and /healthz compare it across processes.
	fp string

	// delta is the write overlay for this generation's base (nil on
	// immutable servers). A fold builds the next generation's base from
	// base ∪ journal and seeds a fresh overlay with the un-folded tail.
	delta *dynamic.DeltaGraph

	// hybrids pools hybrid evaluators: they carry per-traversal scratch
	// sized by the graph and are not safe for concurrent use.
	hybrids sync.Pool
}

// Store holds the currently served state and swaps it atomically — the
// hot-reload primitive behind rlcserve's SIGHUP / POST /reload. A reader
// loads the current generation once (current) and uses it to the end of its
// request; a swap publishes a new generation with one atomic pointer store.
// Nothing is closed or released on a swap: a generation is heap memory,
// bundle bytes included, that stays valid for every reader still holding it
// and that the garbage collector reclaims after the last one lets go.
// Queries therefore never error, block, or see a torn index during a swap.
type Store struct {
	mutable bool // Options.Mutable: every generation gets a write overlay
	cur     atomic.Pointer[state]
	mu      sync.Mutex // serializes swaps
	gen     uint64     // last generation handed out; guarded by mu
	closed  bool       // guarded by mu; a closed store stays closed

	// writes counts accepted edge inserts across all generations, for
	// /stats.
	writes atomic.Uint64
}

// newStore returns a store serving an open snapshot bundle as generation 1.
func newStore(snap *core.Snapshot, opts Options) *Store {
	s := &Store{mutable: opts.Mutable}
	s.install(s.newState(snap, snapshotSource(snap), nil, 0, 0))
	return s
}

// newDelta builds the write overlay for a generation around ix, seeded with
// journal (un-folded edges carried over from the previous epoch). Returns
// nil on immutable stores.
func (s *Store) newDelta(ix *core.Index, journal []graph.Edge) *dynamic.DeltaGraph {
	if !s.mutable {
		return nil
	}
	d, err := dynamic.NewWithJournal(ix.Graph(), ix, journal)
	if err != nil {
		// Carried-over edges were validated against the same vertex/label
		// universe when first accepted; a fold never shrinks it.
		panic("server: carried-over journal failed revalidation: " + err.Error())
	}
	return d
}

// renderBundle serializes ix as a v2 bundle once and opens those bytes as
// the snapshot a generation serves, verified like a bundle read from disk or
// shipped by a leader.
func renderBundle(ix *core.Index) (*core.Snapshot, error) {
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		return nil, fmt.Errorf("server: render bundle: %w", err)
	}
	snap, err := core.OpenSnapshotBytes(buf.Bytes())
	if err == nil {
		err = snap.Verify()
	}
	if err != nil {
		return nil, fmt.Errorf("server: open rendered bundle: %w", err)
	}
	return snap, nil
}

func snapshotSource(snap *core.Snapshot) string {
	if p := snap.Path(); p != "" {
		return "snapshot " + p
	}
	return "snapshot (in-memory)"
}

// stateUIDs hands out state.uid.
var stateUIDs atomic.Uint64

// newState assembles a generation around src with a fresh hybrid pool and,
// on mutable stores, an overlay seeded with journal.
func (s *Store) newState(src *core.Snapshot, source string, journal []graph.Edge, epoch, seqBase uint64) *state {
	ix := src.Index()
	st := &state{
		ix:       ix,
		g:        src.Graph(),
		src:      src,
		source:   source,
		uid:      stateUIDs.Add(1),
		delta:    s.newDelta(ix, journal),
		epoch:    epoch,
		seqBase:  seqBase,
		fp:       src.Fingerprint().Compact(),
		epochHdr: []string{strconv.FormatUint(epoch, 10)},
	}
	if st.delta == nil {
		st.seqHdr = []string{strconv.FormatUint(seqBase, 10)}
	}
	st.hybrids.New = func() any { return hybrid.New(ix) }
	return st
}

// install publishes st as the next generation. A swap that races with (or
// follows) Close does not resurrect the store: st is dropped instead.
func (s *Store) install(st *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.gen++
	st.gen = s.gen
	s.cur.Store(st)
}

// current returns the serving generation, nil after Close. A request loads
// it once and reads only that generation to the end; a swap meanwhile
// leaves it intact.
func (s *Store) current() *state { return s.cur.Load() }

// SwapSnapshot atomically replaces the served generation with an open
// snapshot bundle; queries already running finish on the previous one.
// Callers should Verify the snapshot before handing it over —
// the swap itself is deliberately unconditional, so policy stays with the
// caller (rlcserve verifies; a trusted pipeline may skip it).
func (s *Store) SwapSnapshot(snap *core.Snapshot) {
	s.install(s.newState(snap, snapshotSource(snap), nil, 0, 0))
}

// SwapFolded publishes a post-fold generation: the bundle of the index
// rebuilt over base ∪ journal and a delta overlay seeded with the un-folded
// journal tail. epoch and
// seqBase place the new generation on the replication timeline (the fold
// that produced it advanced both). Like SwapSnapshot, it lets queries that
// loaded the pre-fold generation finish against it, overlay and all.
func (s *Store) SwapFolded(snap *core.Snapshot, journal []graph.Edge, source string, epoch, seqBase uint64) {
	s.install(s.newState(snap, source, journal, epoch, seqBase))
}

// Index returns the currently served index — for inspection and tests.
// Queries load the whole generation through current instead.
func (s *Store) Index() *core.Index {
	if st := s.current(); st != nil {
		return st.ix
	}
	return nil
}

// Generation returns the monotonically increasing generation counter of
// the current state (1 for the initial state, +1 per swap), 0 after Close.
func (s *Store) Generation() uint64 {
	if st := s.current(); st != nil {
		return st.gen
	}
	return 0
}

// Close stops serving: current returns nil from now on and later swaps are
// dropped. It releases nothing and always returns nil; requests already
// running finish on the generation they loaded.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cur.Store(nil)
	return nil
}
