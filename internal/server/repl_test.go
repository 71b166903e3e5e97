package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
)

// replEdges builds n distinct-ish edges over the Fig. 2 vertex/label
// universe — valid inserts for a server built on graph.Fig2().
func replEdges(n, salt int) []graph.Edge {
	g := graph.Fig2()
	edges := make([]graph.Edge, n)
	for i := range edges {
		k := i + salt
		edges[i] = graph.Edge{
			Src:   graph.Vertex(k % g.NumVertices()),
			Dst:   graph.Vertex((k * 3) % g.NumVertices()),
			Label: graph.Label(k % g.NumLabels()),
		}
	}
	return edges
}

// TestHealthzShape pins the /healthz JSON contract the router's health
// poller depends on: the exact key set for both an immutable standalone
// server and a mutable leader. A key renamed or dropped here breaks
// deployed pollers, so the test fails on any drift — additions included.
func TestHealthzShape(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		keys []string
	}{
		{
			name: "immutable standalone",
			opts: Options{},
			keys: []string{"bundle_fingerprint", "generation", "journal_seq", "role", "status"},
		},
		{
			name: "mutable leader",
			opts: Options{Mutable: true, RebuildThreshold: -1, Role: "leader"},
			keys: []string{"bundle_fingerprint", "epoch", "generation", "journal", "journal_seq", "role", "status"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, hts := newTestServer(t, buildIndex(t, graph.Fig2()), c.opts)
			resp, err := http.Get(hts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Fatalf("decode: %v", err)
			}
			got := make([]string, 0, len(m))
			for k := range m {
				got = append(got, k)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(c.keys) {
				t.Fatalf("healthz keys drifted:\n got %v\nwant %v", got, c.keys)
			}
			wantRole := "standalone"
			if c.opts.Role != "" {
				wantRole = c.opts.Role
			}
			if m["role"] != wantRole {
				t.Fatalf("role = %v, want %q", m["role"], wantRole)
			}
			if m["journal_seq"] != float64(0) {
				t.Fatalf("fresh server journal_seq = %v, want 0", m["journal_seq"])
			}
			if fp, _ := m["bundle_fingerprint"].(string); !strings.Contains(fp, ".") {
				t.Fatalf("bundle_fingerprint = %v, want a compact fingerprint", m["bundle_fingerprint"])
			}
		})
	}
}

// TestReplHeaders checks the consistency-token headers: queries carry a
// pre-compute freshness floor, updates carry a post-append write token,
// and the update token is immediately covered by the next query's floor.
func TestReplHeaders(t *testing.T) {
	srv, hts := newTestServer(t, buildIndex(t, graph.Fig2()), Options{Mutable: true, RebuildThreshold: -1})

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	resp := get("/query?s=0&t=4&l=l1")
	if e, q := resp.Header.Get(HeaderEpoch), resp.Header.Get(HeaderSeq); e != "0" || q != "0" {
		t.Fatalf("fresh query headers epoch=%q seq=%q, want 0/0", e, q)
	}

	body := strings.NewReader(`{"edges":[{"s":0,"l":"l1","t":4},{"s":1,"l":"l2","t":5}]}`)
	up, err := http.Post(hts.URL+"/update", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var res UpdateResult
	if err := json.NewDecoder(up.Body).Decode(&res); err != nil {
		t.Fatalf("decode update: %v", err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusOK || res.Seq != 2 {
		t.Fatalf("update: status %d res %+v, want seq 2", up.StatusCode, res)
	}
	if q := up.Header.Get(HeaderSeq); q != "2" {
		t.Fatalf("update seq header %q, want 2 (post-append token)", q)
	}

	resp = get("/query?s=0&t=4&l=l1")
	if q := resp.Header.Get(HeaderSeq); q != "2" {
		t.Fatalf("query after update: seq floor %q, want 2", q)
	}
	if rs := srv.ReplState(); rs.Seq != 2 || rs.Epoch != 0 || rs.SeqBase != 0 {
		t.Fatalf("ReplState = %+v, want seq 2 epoch 0 base 0", rs)
	}
}

// TestExportJournal walks the segment-export contract end to end: every
// published batch exports at once, whether or not it crossed a segment
// boundary, a cursor past the log is a foreign log, and after a fold a
// cursor under the new base demands bundle cutover.
func TestExportJournal(t *testing.T) {
	srv, _ := newTestServer(t, buildIndex(t, graph.Fig2()), Options{Mutable: true, RebuildThreshold: -1})

	if _, _, err := srv.ExportJournal(5); err == nil || errorCode(err) != "foreign_log" {
		t.Fatalf("export past empty log: err %v, want foreign_log", err)
	}

	if _, err := srv.UpdateBatch(replEdges(33, 0)); err != nil {
		t.Fatal(err)
	}
	edges, rs, err := srv.ExportJournal(0)
	if err != nil || !slices.Equal(edges, replEdges(33, 0)) {
		t.Fatalf("export: %d edges, err %v (state %+v), want the 33-edge batch", len(edges), err, rs)
	}
	if rs.Seq != 33 {
		t.Fatalf("state after batch: %+v, want seq 33", rs)
	}

	// A sub-boundary trickle exports at once: nothing has to seal it first.
	if _, err := srv.UpdateBatch(replEdges(2, 7)); err != nil {
		t.Fatal(err)
	}
	edges, rs, err = srv.ExportJournal(33)
	if err != nil || !slices.Equal(edges, replEdges(2, 7)) || rs.Seq != 35 {
		t.Fatalf("trickle export: %d edges, err %v, state %+v; want the 2-edge batch at seq 35", len(edges), err, rs)
	}
	if edges, _, err := srv.ExportJournal(35); err != nil || len(edges) != 0 {
		t.Fatalf("export at the log end: %d edges, err %v, want empty success", len(edges), err)
	}

	if _, err := srv.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.ExportJournal(10); err == nil || errorCode(err) != "behind_bundle" {
		t.Fatalf("export under folded base: err %v, want behind_bundle", err)
	}
	if rs := srv.ReplState(); rs.Epoch != 1 || rs.SeqBase != 35 || rs.Seq != 35 {
		t.Fatalf("post-fold state %+v, want epoch 1, base=seq=35", rs)
	}
	if _, _, err := srv.ExportJournal(35); err != nil {
		t.Fatalf("export at the new base: %v, want empty success", err)
	}
}

// TestBundleAdoptRoundtrip drives one full epoch cutover by hand — the
// follower-side path the cluster package automates: the leader folds, the
// follower downloads the bundle bytes, verifies them, and adopts the
// leader's epoch. Afterwards both must agree on coordinates, fingerprint,
// and answers.
func TestBundleAdoptRoundtrip(t *testing.T) {
	g := graph.Fig2()
	leader, _ := newTestServer(t, buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1, Role: "leader"})
	follower, _ := newTestServer(t, buildIndex(t, g), Options{Mutable: true, RebuildThreshold: -1, Role: "follower"})

	batch := replEdges(40, 3)
	if _, err := leader.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Segment replication: the follower applies the leader's sealed log.
	edges, _, err := leader.ExportJournal(0)
	if err != nil || len(edges) != 40 {
		t.Fatalf("leader export: %d edges, err %v", len(edges), err)
	}
	if _, err := follower.UpdateBatch(edges); err != nil {
		t.Fatalf("follower apply: %v", err)
	}

	if _, err := leader.Rebuild(); err != nil {
		t.Fatal(err)
	}
	want := leader.ReplState()
	if want.Epoch != 1 || want.SeqBase != 40 {
		t.Fatalf("leader post-fold state %+v", want)
	}

	// Bundle cutover. Asking for a stale epoch must fail closed, with the
	// current coordinates and no bytes.
	if rs, raw, err := leader.Bundle(0); errorCode(err) != "epoch_gone" || raw != nil || rs.Epoch != want.Epoch {
		t.Fatalf("stale-epoch bundle: %+v, %d bytes, err %v; want epoch_gone at epoch %d", rs, len(raw), err, want.Epoch)
	}
	brs, raw, err := leader.Bundle(want.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if brs.BundleBytes != int64(len(raw)) {
		t.Fatalf("bundle of %d bytes, coordinates say %d", len(raw), brs.BundleBytes)
	}
	snap, err := core.OpenSnapshotBytes(raw)
	if err != nil {
		t.Fatalf("open shipped bundle: %v", err)
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("verify shipped bundle: %v", err)
	}
	if fp := snap.Fingerprint().Compact(); fp != brs.Fingerprint {
		t.Fatalf("bundle fingerprint %s != handshake %s", fp, brs.Fingerprint)
	}
	frs := follower.ReplState()
	tail := edges[brs.SeqBase-frs.SeqBase:]
	if err := follower.AdoptFolded(snap, tail, brs.Epoch, brs.SeqBase, "adopted test bundle"); err != nil {
		t.Fatalf("adopt: %v", err)
	}

	got := follower.ReplState()
	if got.Epoch != want.Epoch || got.SeqBase != want.SeqBase || got.Seq != want.Seq ||
		got.Fingerprint != want.Fingerprint {
		t.Fatalf("follower state %+v diverges from leader %+v", got, want)
	}
	for s := 0; s < g.NumVertices(); s++ {
		for d := 0; d < g.NumVertices(); d++ {
			for l := 0; l < g.NumLabels(); l++ {
				lw, _, err1 := leader.AnswerRLC(t.Context(), graph.Vertex(s), graph.Vertex(d), []graph.Label{graph.Label(l)})
				fw, _, err2 := follower.AnswerRLC(t.Context(), graph.Vertex(s), graph.Vertex(d), []graph.Label{graph.Label(l)})
				if err1 != nil || err2 != nil {
					t.Fatalf("(%d,%d,l%d): errs %v %v", s, d, l, err1, err2)
				}
				if lw != fw {
					t.Fatalf("(%d,%d,l%d): leader %v follower %v", s, d, l, lw, fw)
				}
			}
		}
	}
}

// TestBodyTooLarge checks the request-body cap: a body one byte past
// DefaultMaxBodyBytes on the JSON POST endpoints dies with 413 and the
// machine-readable code. The body is whitespace ahead of a valid edge, so
// both decoders read on until the cap cuts them off.
func TestBodyTooLarge(t *testing.T) {
	_, hts := newTestServer(t, buildIndex(t, graph.Fig2()),
		Options{Mutable: true, RebuildThreshold: -1})
	edge := `{"s":0,"l":"l1","t":4}`
	big := strings.Repeat(" ", DefaultMaxBodyBytes+1-len(edge)) + edge
	for _, path := range []string{"/update", "/batch"} {
		resp, err := http.Post(hts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Code != "body_too_large" {
			t.Fatalf("%s: status %d code %q, want 413 body_too_large", path, resp.StatusCode, er.Code)
		}
	}
}

// TestFollowerRejectsClientWrites pins the role gate: HTTP writes on a
// follower answer 403 not_leader, while the Go-level apply path (what the
// replication loop uses) stays open.
func TestFollowerRejectsClientWrites(t *testing.T) {
	srv, hts := newTestServer(t, buildIndex(t, graph.Fig2()),
		Options{Mutable: true, RebuildThreshold: -1, Role: "follower"})
	for _, path := range []string{"/update", "/rebuild"} {
		resp, err := http.Post(hts.URL+path, "application/json",
			strings.NewReader(`{"s":0,"l":"l1","t":4}`))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || er.Code != "not_leader" {
			t.Fatalf("%s: status %d code %q, want 403 not_leader", path, resp.StatusCode, er.Code)
		}
	}
	if _, err := srv.UpdateBatch(replEdges(1, 0)); err != nil {
		t.Fatalf("Go-level apply on follower: %v", err)
	}
}
