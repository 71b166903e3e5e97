package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// Replication coordinate headers. Query and update responses carry the
// serving generation's (epoch, seq) so routers can hand clients a
// consistency token; the repl endpoints use the full set as their
// handshake. Names are pre-canonicalized to net/http's MIME form.
const (
	// HeaderEpoch is the serving epoch (completed folds) of the generation
	// that produced the response.
	HeaderEpoch = "X-Rlc-Epoch"
	// HeaderSeq is the global insert sequence the response covers: for
	// queries, a floor captured before the answer was computed (the answer
	// reflects at least this much of the log); for updates, the sequence
	// after the batch landed (a token at least as new as the write).
	HeaderSeq = "X-Rlc-Seq"
	// HeaderSeqBase is the sequence already folded into the serving base —
	// a follower whose cursor is below it must cut over to the bundle.
	HeaderSeqBase = "X-Rlc-Seq-Base"
	// HeaderFingerprint is the compact fingerprint of the serving base
	// graph (graph.Fingerprint.Compact).
	HeaderFingerprint = "X-Rlc-Fingerprint"
)

// Replication failure sentinels. They classify segment-export misses so
// the cluster layer (and its HTTP surface) can react mechanically: a
// cursor under the folded base means "fetch the bundle", one past the log
// means "foreign or restarted log".
var (
	// errSeqFolded rejects a segment export whose cursor precedes the
	// serving base: those edges were folded into the bundle.
	errSeqFolded = errors.New("server: requested sequence was folded into the base bundle; cut over via the bundle endpoint")
	// errSeqAhead rejects a segment export whose cursor is past the end of
	// the log — the requester replicated a different (or restarted) log.
	errSeqAhead = errors.New("server: requested sequence is beyond the end of the log; follower and leader histories diverge")
	// errEpochGone rejects a bundle request for an epoch the server no
	// longer (or does not yet) serve.
	errEpochGone = errors.New("server: requested epoch is not the serving epoch")
	// errNotLeader rejects client-originated HTTP writes on a follower,
	// whose graph may change only through the replication apply path.
	errNotLeader = errors.New("server: this replica is a follower; send writes to the leader")
)

// ReplState places one serving generation on the replication
// timeline. All fields are read from a single generation, so they are
// mutually consistent even while folds and inserts race.
type ReplState struct {
	// Role echoes Options.Role ("standalone" when unset).
	Role string `json:"role"`
	// Generation is the store generation (process-local, resets on restart).
	Generation uint64 `json:"generation"`
	// Epoch counts completed folds (leader-side or adopted from a leader).
	Epoch uint64 `json:"epoch"`
	// SeqBase is the global insert sequence folded into the serving base.
	SeqBase uint64 `json:"seq_base"`
	// Seq is the global insert sequence applied so far (base + journal).
	Seq uint64 `json:"seq"`
	// Fingerprint is the compact fingerprint of the serving base graph.
	Fingerprint string `json:"fingerprint"`
	// BundleBytes is the byte size of the serving bundle.
	BundleBytes int64 `json:"bundle_bytes"`
}

// role resolves the reported role, defaulting to "standalone".
func (o Options) role() string {
	if o.Role == "" {
		return "standalone"
	}
	return o.Role
}

// seqNow is the global insert sequence this generation has applied so far:
// the folded base plus the overlay journal. Monotone across the lineage —
// folds move edges from journal to base without changing the sum.
func (st *state) seqNow() uint64 {
	if st.delta != nil {
		return st.seqBase + uint64(st.delta.JournalLen())
	}
	return st.seqBase
}

// replHeaders stamps a read's response headers with the generation's
// replication coordinates. It reads the sequence itself, so it must run
// before the answer is computed — the header is then a freshness floor the
// answer is guaranteed to reflect — and before the status line is written.
func (st *state) replHeaders(h http.Header) {
	h[HeaderEpoch] = st.epochHdr
	if st.delta == nil {
		h[HeaderSeq] = st.seqHdr // seqBase, for good
	} else {
		h[HeaderSeq] = []string{strconv.FormatUint(st.seqNow(), 10)}
	}
}

// limitBody caps r.Body at DefaultMaxBodyBytes; reads past the cap fail
// with *http.MaxBytesError, which the JSON handlers surface as HTTP 413
// with code "body_too_large".
func limitBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
}

// replState reads the replication coordinates of one generation.
func (s *Server) replState(st *state) ReplState {
	return ReplState{
		Role:        s.opts.role(),
		Generation:  st.gen,
		Epoch:       st.epoch,
		SeqBase:     st.seqBase,
		Seq:         st.seqNow(),
		Fingerprint: st.fp,
		BundleBytes: st.src.SizeBytes(),
	}
}

// ReplState snapshots the current generation's replication coordinates
// (the zero value after Close).
func (s *Server) ReplState() ReplState {
	st := s.store.current()
	if st == nil {
		return ReplState{}
	}
	return s.replState(st)
}

// ExportJournal copies the journal edges from global sequence from to the
// end of the log, together with the coordinates they were read under. The
// copy is journal[from:seq] of one published view, whose prefix is frozen
// and which holds whole insert batches only, so a caller that advances its
// cursor by what each export returned never tears a batch or ships an edge
// twice. A cursor below the folded base fails with the behind-bundle
// sentinel (the caller must cut over via Bundle); one past the log fails
// as a foreign log.
func (s *Server) ExportJournal(from uint64) ([]graph.Edge, ReplState, error) {
	if !s.opts.Mutable {
		return nil, ReplState{}, errNotMutable
	}
	st := s.store.current()
	if st == nil {
		return nil, ReplState{}, errServerClosed
	}
	rs := s.replState(st)
	if from < rs.SeqBase {
		return nil, rs, fmt.Errorf("%w (cursor %d, base %d)", errSeqFolded, from, rs.SeqBase)
	}
	if from > rs.Seq {
		return nil, rs, fmt.Errorf("%w (cursor %d, log end %d)", errSeqAhead, from, rs.Seq)
	}
	return st.delta.JournalTail(int(from - rs.SeqBase)), rs, nil
}

// Bundle returns the serving base bundle for epoch cutover, with the
// coordinates of the generation it belongs to. The caller's expected epoch
// is checked against that generation: a fold racing the request fails it
// with the epoch_gone sentinel and the current coordinates, instead of
// shipping a surprise epoch. It returns the generation's own bundle bytes,
// zero-copy. The bundle never includes journal edges — those ship as
// segments.
func (s *Server) Bundle(wantEpoch uint64) (ReplState, []byte, error) {
	st := s.store.current()
	if st == nil {
		return ReplState{}, nil, errServerClosed
	}
	rs := s.replState(st)
	if rs.Epoch != wantEpoch {
		return rs, nil, fmt.Errorf("%w (requested %d, serving %d)", errEpochGone, wantEpoch, rs.Epoch)
	}
	return rs, st.src.Bytes(), nil
}

// AdoptFolded installs an externally produced fold epoch: a verified
// snapshot bundle plus the journal tail to carry over — how a replication
// follower cuts over to the leader's freshly folded bundle through the
// same swap local folds use.
// epoch and seqBase are the leader's coordinates for the bundle; the
// caller has already checked the fingerprint handshake and run
// Snapshot.Verify. Writers pause only for the swap itself.
func (s *Server) AdoptFolded(snap *core.Snapshot, tail []graph.Edge, epoch, seqBase uint64, source string) error {
	if !s.opts.Mutable {
		return errNotMutable
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	if s.store.Generation() == 0 {
		// Closed store: SwapFolded would drop the incoming snapshot; tell
		// the caller adoption did not happen.
		return errServerClosed
	}
	s.store.SwapFolded(snap, tail, source, epoch, seqBase)
	return nil
}
