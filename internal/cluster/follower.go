package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/server"
)

// errForeignLog is the permanent replication failure: the leader's history
// is not this follower's history (different origin lineage, or a log
// position past the leader's end). A follower stops rather than apply a
// single edge from it — silently merging two histories would corrupt the
// replica for every future query.
var errForeignLog = errors.New("cluster: leader log belongs to a different lineage; refusing to replicate")

// FollowerOptions configures the replication loop.
type FollowerOptions struct {
	// LeaderURL is the leader's base URL (e.g. "http://10.0.0.1:8080").
	LeaderURL string
	// Client is the HTTP client for replication calls; nil uses a default
	// with no overall timeout (the long-poll holds connections open).
	Client *http.Client
	// PollWait is the long-poll wait the follower asks the leader for.
	// Zero selects 2s.
	PollWait time.Duration
	// Origin is the expected lineage identity (the leader's X-Rlc-Origin).
	// Empty selects the follower server's own fingerprint at construction —
	// correct when leader and follower booted from the same seed bundle,
	// which is the deployment contract. A follower restarted from an
	// adopted (post-fold) bundle must pass the lineage origin explicitly.
	Origin string
	// Logf, when non-nil, receives replication progress lines.
	Logf func(format string, args ...any)
}

// FollowerStats counts replication progress; all fields are cumulative.
type FollowerStats struct {
	// Segments is the number of non-empty segment frames applied.
	Segments uint64
	// Edges is the number of journal edges applied.
	Edges uint64
	// Cutovers is the number of bundle epoch cutovers completed.
	Cutovers uint64
}

// Follower replicates a leader's journal and fold epochs into a local
// mutable server. It is driven by Run; the local server answers queries
// concurrently the whole time, including across bundle cutovers.
type Follower struct {
	srv  *server.Server
	opts FollowerOptions

	// origin is the lineage this follower will replicate — fixed at
	// construction; every leader response must match or replication stops
	// with errForeignLog before a single edge is applied.
	origin string

	// retryInterval paces retries after transient errors.
	retryInterval time.Duration

	segments atomic.Uint64
	edges    atomic.Uint64
	cutovers atomic.Uint64
}

// NewFollower wraps a local mutable server (Options.Role "follower",
// automatic folds disabled — its epochs must come from the leader) with a
// replication loop against opts.LeaderURL.
func NewFollower(srv *server.Server, opts FollowerOptions) *Follower {
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 2 * time.Second
	}
	origin := opts.Origin
	if origin == "" {
		origin = srv.ReplState().Fingerprint
	}
	return &Follower{srv: srv, opts: opts, origin: origin, retryInterval: 200 * time.Millisecond}
}

// Stats returns cumulative replication counters.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		Segments: f.segments.Load(),
		Edges:    f.edges.Load(),
		Cutovers: f.cutovers.Load(),
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// checkOrigin rejects any response that is not from the expected lineage.
func (f *Follower) checkOrigin(h http.Header) error {
	got := h.Get(HeaderOrigin)
	if got == "" {
		return fmt.Errorf("%w: response carries no origin header", errForeignLog)
	}
	if got != f.origin {
		return fmt.Errorf("%w: leader origin %s, expected %s", errForeignLog, got, f.origin)
	}
	return nil
}

func headerUint(h http.Header, key string) (uint64, error) {
	v, err := strconv.ParseUint(h.Get(key), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cluster: bad %s header %q: %w", key, h.Get(key), err)
	}
	return v, nil
}

// Run drives replication until ctx is canceled (returns ctx.Err()) or a
// permanent divergence is detected (returns errForeignLog-wrapping error).
// Transient failures — network errors, leader restarts within the same
// lineage, epoch races — are retried forever.
func (f *Follower) Run(ctx context.Context) error {
	for {
		err := f.pollOnce(ctx)
		switch {
		case err == nil:
			continue
		case errors.Is(err, errForeignLog):
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			f.logf("follower: transient: %v", err)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(f.retryInterval):
			}
		}
	}
}

// pollOnce performs one long-poll round: fetch segments from the local
// applied sequence, apply them, and cut over to the leader's bundle when
// its epoch has moved ahead.
func (f *Follower) pollOnce(ctx context.Context) error {
	local := f.srv.ReplState()
	u := fmt.Sprintf("%s/repl/segments?from=%d&wait_ms=%d",
		f.opts.LeaderURL, local.Seq, f.opts.PollWait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if err := f.checkOrigin(resp.Header); err != nil {
		return err
	}
	leaderEpoch, err := headerUint(resp.Header, server.HeaderEpoch)
	if err != nil {
		return err
	}

	switch resp.StatusCode {
	case http.StatusOK:
		if err := f.applySegments(resp.Body, local.Seq); err != nil {
			return err
		}
		if leaderEpoch > local.Epoch {
			return f.cutover(ctx, leaderEpoch)
		}
		return nil
	case http.StatusGone:
		// Our cursor predates the leader's folded base: segments are gone,
		// the bundle carries everything we are missing.
		return f.cutover(ctx, leaderEpoch)
	case http.StatusConflict:
		return fmt.Errorf("%w: leader rejected cursor %d (epoch %d)", errForeignLog, local.Seq, leaderEpoch)
	default:
		return fmt.Errorf("cluster: segments: leader answered %s", resp.Status)
	}
}

// applySegments replays a segment stream through the local server's exact
// batch-insert path, verifying frame contiguity against the local cursor.
// A gap or overlap means the stream raced a local change that cannot
// happen (the replication loop is the only writer) — treated as a wire
// error and retried from the new cursor.
func (f *Follower) applySegments(body io.Reader, cursor uint64) error {
	for {
		start, edges, err := ReadSegment(body)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if start != cursor {
			return fmt.Errorf("%w: segment starts at %d, cursor is %d", errWire, start, cursor)
		}
		if _, err := f.srv.UpdateBatch(edges); err != nil {
			return fmt.Errorf("cluster: apply segment at %d: %w", start, err)
		}
		cursor += uint64(len(edges))
		f.segments.Add(1)
		f.edges.Add(uint64(len(edges)))
	}
}

// cutover downloads the leader's folded bundle for epoch, verifies it —
// container checksums and fingerprint handshake — and hot-swaps the local
// server onto it, carrying local journal edges past the bundle's base into
// the new overlay. Queries keep answering throughout; the swap itself is
// the same one a local fold uses. An epoch race (the leader folded
// again) is transient: the next poll sees the newer epoch and retries.
func (f *Follower) cutover(ctx context.Context, epoch uint64) error {
	u := fmt.Sprintf("%s/repl/bundle?epoch=%d", f.opts.LeaderURL, epoch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if err := f.checkOrigin(resp.Header); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: bundle epoch %d: leader answered %s", epoch, resp.Status)
	}
	seqBase, err := headerUint(resp.Header, server.HeaderSeqBase)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("cluster: bundle transfer: %w", err)
	}

	snap, err := core.OpenSnapshotBytes(raw)
	if err != nil {
		return fmt.Errorf("cluster: open shipped bundle: %w", err)
	}
	if err := snap.Verify(); err != nil {
		return fmt.Errorf("cluster: verify shipped bundle: %w", err)
	}
	if fp, want := snap.Fingerprint().Compact(), resp.Header.Get(server.HeaderFingerprint); fp != want {
		return fmt.Errorf("%w: bundle fingerprint %s does not match handshake %s", errForeignLog, fp, want)
	}

	tail, err := f.journalFrom(seqBase)
	if err != nil {
		return err
	}
	if err := f.srv.AdoptFolded(snap, tail, epoch, seqBase,
		fmt.Sprintf("replicated bundle epoch %d", epoch)); err != nil {
		return fmt.Errorf("cluster: adopt bundle epoch %d: %w", epoch, err)
	}
	f.cutovers.Add(1)
	f.logf("follower: cut over to epoch %d (base %d, %d journal edges carried)", epoch, seqBase, len(tail))
	return nil
}

// journalFrom collects every locally applied edge at global sequence >=
// from — the journal tail a cutover carries into the adopted generation.
// A follower behind the bundle (local seq <= from) has nothing to carry:
// the bundle subsumes its entire history. The replication loop is the only
// writer on this server, so the tail one export reads is still the whole
// of it when the swap runs.
func (f *Follower) journalFrom(from uint64) ([]graph.Edge, error) {
	if f.srv.ReplState().Seq <= from {
		return nil, nil
	}
	tail, _, err := f.srv.ExportJournal(from)
	if err != nil {
		return nil, fmt.Errorf("cluster: collect journal tail: %w", err)
	}
	return tail, nil
}
