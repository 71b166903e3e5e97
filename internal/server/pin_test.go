package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// pinWatch runs calls against a Store and checks, after each, that every
// generation the store has served is back at rest: one reference — the
// Store's own — while current, none once retired, and a retired
// generation's snapshot closed.
type pinWatch struct {
	t    *testing.T
	s    *Store
	seen []*state
}

func (w *pinWatch) observe() {
	if st := w.s.cur.Load(); st != nil && !slices.Contains(w.seen, st) {
		w.seen = append(w.seen, st)
	}
}

func (w *pinWatch) call(what string, fn func() error) {
	w.t.Helper()
	w.observe()
	if err := fn(); err != nil {
		w.t.Errorf("%s: %v", what, err)
	}
	w.observe()
	for _, st := range w.seen {
		want := int64(1)
		if st.retired.Load() {
			want = 0
		}
		if n := st.refs.Load(); n != want {
			w.t.Errorf("%s: generation %d (retired %v) holds %d references, want %d", what, st.gen, st.retired.Load(), n, want)
		}
		if want == 0 && st.src != nil && st.src.Index() != nil {
			w.t.Errorf("%s: retired generation %d's snapshot is still open", what, st.gen)
		}
	}
}

// status returns a call that sends one request through h and wants code.
func status(h http.Handler, code int, method, target, body string) func() error {
	return func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != code {
			return fmt.Errorf("status %d, want %d: %s", rec.Code, code, rec.Body)
		}
		return nil
	}
}

// fails wants fn to return an error with the given wire code ("" for any).
func fails(code string, fn func() error) func() error {
	return func() error {
		err := fn()
		if err == nil || code != "" && errorCode(err) != code {
			return fmt.Errorf("err %v, want code %q", err, code)
		}
		return nil
	}
}

// TestPinBalance drives every path that pins a generation — the five
// pinned handlers, the pinned methods and POST /reload — through a success,
// a failure and the after-Close path, and holds every generation's
// reference count to its resting value after each call.
func TestPinBalance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.rlcs")
	saveSnapshot(t, graph.Fig2(), path)
	ctx := context.Background()

	// A mutable server on a mapped bundle: the first bundle it sends is the
	// mapping, the one after a fold a heap-built base serialized.
	srv := NewFromSnapshot(openSnapshot(t, path), Options{Mutable: true, RebuildThreshold: -1})
	h := srv.Handler()
	w := &pinWatch{t: t, s: srv.store}
	sendBundle := func(epoch uint64) func() error {
		return func() error {
			sent := false
			_, err := srv.SendBundle(epoch, func(rs ReplState, bundle []byte) {
				// Held for the send: the Store's reference and this one.
				if n := srv.store.cur.Load().refs.Load(); n != 2 {
					t.Errorf("SendBundle: %d references during send, want 2", n)
				}
				sent = len(bundle) > 0 && int64(len(bundle)) == rs.BundleBytes
			})
			if err == nil && !sent {
				err = errors.New("send did not get the bundle")
			}
			return err
		}
	}
	rebuild := func(folded int) func() error {
		return func() error {
			res, err := srv.Rebuild()
			if err == nil && res.Folded != folded {
				err = fmt.Errorf("folded %d, want %d", res.Folded, folded)
			}
			return err
		}
	}
	edge := []graph.Edge{{Src: 0, Dst: 3, Label: 0}}

	w.call("GET /query", status(h, http.StatusOK, "GET", "/query?s=0&t=3&l=l1", ""))
	w.call("GET /query without l", status(h, http.StatusBadRequest, "GET", "/query?s=0&t=3", ""))
	w.call("POST /batch", status(h, http.StatusOK, "POST", "/batch", `{"queries":[{"s":0,"t":3,"l":"l1"}]}`))
	w.call("POST /batch, empty", status(h, http.StatusBadRequest, "POST", "/batch", `{"queries":[]}`))
	w.call("GET /stats", status(h, http.StatusOK, "GET", "/stats", ""))
	w.call("POST /stats", status(h, http.StatusMethodNotAllowed, "POST", "/stats", ""))
	w.call("GET /healthz", status(h, http.StatusOK, "GET", "/healthz", ""))
	w.call("POST /healthz", status(h, http.StatusMethodNotAllowed, "POST", "/healthz", ""))
	w.call("POST /update", status(h, http.StatusOK, "POST", "/update", `{"s":"v1","l":"l1","t":"v4"}`))
	w.call("POST /update, unknown label", status(h, http.StatusBadRequest, "POST", "/update", `{"s":"v1","l":"nope","t":"v4"}`))
	w.call("QueryRLC", func() error { _, err := srv.QueryRLC(ctx, 0, 3, labelseq.Seq{0}); return err })
	w.call("QueryRLC, vertex out of range", fails("vertex_range", func() error {
		_, err := srv.QueryRLC(ctx, 0, 99, labelseq.Seq{0})
		return err
	}))
	w.call("UpdateBatch", func() error { _, err := srv.UpdateBatch(edge); return err })
	w.call("UpdateBatch, label out of range", fails("", func() error {
		_, err := srv.UpdateBatch([]graph.Edge{{Src: 0, Dst: 3, Label: 99}})
		return err
	}))
	w.call("ReplState", func() error {
		if rs := srv.ReplState(); rs.Seq != 2 {
			return fmt.Errorf("seq %d, want 2", rs.Seq)
		}
		return nil
	})
	w.call("ExportSealed", func() error { _, _, err := srv.ExportSealed(0, true); return err })
	w.call("ExportSealed past the log", fails("foreign_log", func() error {
		_, _, err := srv.ExportSealed(99, true)
		return err
	}))
	w.call("SendBundle, mapped", sendBundle(0))
	w.call("SendBundle, stale epoch", fails("epoch_gone", sendBundle(7)))
	w.call("Rebuild", rebuild(2))
	w.call("Rebuild, nothing to fold", rebuild(0))
	w.call("SendBundle, heap-built", sendBundle(1))

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ method, target, body string }{
		{"GET", "/query?s=0&t=3&l=l1", ""},
		{"POST", "/batch", `{"queries":[{"s":0,"t":3,"l":"l1"}]}`},
		{"GET", "/stats", ""},
		{"GET", "/healthz", ""},
		{"POST", "/update", `{"s":"v1","l":"l1","t":"v4"}`},
	} {
		w.call(c.method+" "+c.target+" after Close", status(h, http.StatusServiceUnavailable, c.method, c.target, c.body))
	}
	closed := func(fn func() error) func() error { return fails("server_closed", fn) }
	w.call("QueryRLC after Close", closed(func() error { _, err := srv.QueryRLC(ctx, 0, 3, labelseq.Seq{0}); return err }))
	w.call("UpdateBatch after Close", closed(func() error { _, err := srv.UpdateBatch(edge); return err }))
	w.call("foldInput after Close", closed(func() error { _, _, _, err := srv.foldInput(); return err }))
	late := openSnapshot(t, path)
	w.call("installFolded after Close", closed(func() error {
		_, _, err := srv.installFolded(late.Index(), late, 1, "late fold")
		if late.Index() != nil {
			t.Error("installFolded after Close left the folded snapshot open")
		}
		return err
	}))
	w.call("ReplState after Close", func() error {
		if rs := srv.ReplState(); rs != (ReplState{}) {
			return fmt.Errorf("%+v, want the zero value", rs)
		}
		return nil
	})
	w.call("ExportSealed after Close", closed(func() error { _, _, err := srv.ExportSealed(0, true); return err }))
	w.call("SendBundle after Close", closed(sendBundle(1)))

	// POST /reload pins the generation it installed, to report its source.
	var sourceErr error
	reloading := NewFromSnapshot(openSnapshot(t, path), Options{SnapshotSource: func() (*core.Snapshot, error) {
		if sourceErr != nil {
			return nil, sourceErr
		}
		return core.OpenVerifiedSnapshot(path)
	}})
	h = reloading.Handler()
	w = &pinWatch{t: t, s: reloading.store}
	w.call("POST /reload", status(h, http.StatusOK, "POST", "/reload", ""))
	sourceErr = errors.New("no bundle today")
	w.call("POST /reload, source fails", status(h, http.StatusInternalServerError, "POST", "/reload", ""))
	sourceErr = nil
	if err := reloading.Close(); err != nil {
		t.Fatal(err)
	}
	w.call("POST /reload after Close", status(h, http.StatusOK, "POST", "/reload", ""))
}

// TestWithReleasesOnPanic: a panic inside Store.with still drops the pin,
// and when the pinned generation was retired meanwhile, that release is
// the last one and closes its snapshot.
func TestWithReleasesOnPanic(t *testing.T) {
	dir := t.TempDir()
	pathA, pathB := filepath.Join(dir, "a.rlcs"), filepath.Join(dir, "b.rlcs")
	saveSnapshot(t, chainGraph(10, 0), pathA)
	saveSnapshot(t, chainGraph(10, 1), pathB)
	store := NewStoreFromSnapshot(openSnapshot(t, pathA), Options{})
	defer store.Close()

	panicking := func(fn func(*state)) (st *state) {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic inside with did not propagate")
			}
		}()
		store.with(func(pinned *state) {
			st = pinned
			fn(pinned)
			panic("query blew up")
		})
		return st
	}

	st := panicking(func(*state) {})
	if n := st.refs.Load(); n != 1 {
		t.Fatalf("after a panic in with: %d references, want 1 (the Store's own)", n)
	}

	st = panicking(func(*state) { store.SwapSnapshot(openSnapshot(t, pathB)) })
	if n := st.refs.Load(); n != 0 {
		t.Fatalf("retired generation after a panic in with: %d references, want 0", n)
	}
	if st.src.Index() != nil {
		t.Fatal("the retired generation's snapshot is still open after the panicking pin drained")
	}
	if n := store.cur.Load().refs.Load(); n != 1 {
		t.Fatalf("new generation: %d references, want 1", n)
	}
}
