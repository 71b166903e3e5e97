package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

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

// TestEveryPathBeforeAndAfterClose drives every path that reads the serving
// generation — the five handlers behind onCurrent, the methods and
// POST /reload — through a success and a failure, then again after Close:
// every handler must answer 503 and every method server_closed.
func TestEveryPathBeforeAndAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.rlcs")
	saveSnapshot(t, graph.Fig2(), path)
	ctx := context.Background()

	// A mutable server on a bundle: the first bundle it hands out is the one
	// it read, the one after a fold the bundle that fold rendered.
	srv := NewFromSnapshot(openSnapshot(t, path), Options{Mutable: true, RebuildThreshold: -1})
	h := srv.Handler()
	call := func(what string, fn func() error) {
		t.Helper()
		if err := fn(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	bundle := func(epoch uint64) func() error {
		return func() error {
			rs, raw, err := srv.Bundle(epoch)
			if err == nil && (len(raw) == 0 || int64(len(raw)) != rs.BundleBytes) {
				err = fmt.Errorf("%d bytes, coordinates say %d", len(raw), rs.BundleBytes)
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

	call("GET /query", status(h, http.StatusOK, "GET", "/query?s=0&t=3&l=l1", ""))
	call("GET /query without l", status(h, http.StatusBadRequest, "GET", "/query?s=0&t=3", ""))
	call("POST /batch", status(h, http.StatusOK, "POST", "/batch", `{"queries":[{"s":0,"t":3,"l":"l1"}]}`))
	call("POST /batch, empty", status(h, http.StatusBadRequest, "POST", "/batch", `{"queries":[]}`))
	call("GET /stats", status(h, http.StatusOK, "GET", "/stats", ""))
	call("POST /stats", status(h, http.StatusMethodNotAllowed, "POST", "/stats", ""))
	call("GET /healthz", status(h, http.StatusOK, "GET", "/healthz", ""))
	call("POST /healthz", status(h, http.StatusMethodNotAllowed, "POST", "/healthz", ""))
	call("POST /update", status(h, http.StatusOK, "POST", "/update", `{"s":"v1","l":"l1","t":"v4"}`))
	call("POST /update, unknown label", status(h, http.StatusBadRequest, "POST", "/update", `{"s":"v1","l":"nope","t":"v4"}`))
	call("QueryRLC", func() error { _, err := srv.QueryRLC(ctx, 0, 3, labelseq.Seq{0}); return err })
	call("QueryRLC, vertex out of range", fails("vertex_range", func() error {
		_, err := srv.QueryRLC(ctx, 0, 99, labelseq.Seq{0})
		return err
	}))
	call("UpdateBatch", func() error { _, err := srv.UpdateBatch(edge); return err })
	call("UpdateBatch, label out of range", fails("", func() error {
		_, err := srv.UpdateBatch([]graph.Edge{{Src: 0, Dst: 3, Label: 99}})
		return err
	}))
	call("ReplState", func() error {
		if rs := srv.ReplState(); rs.Seq != 2 {
			return fmt.Errorf("seq %d, want 2", rs.Seq)
		}
		return nil
	})
	call("ExportJournal", func() error { _, _, err := srv.ExportJournal(0); return err })
	call("ExportJournal past the log", fails("foreign_log", func() error {
		_, _, err := srv.ExportJournal(99)
		return err
	}))
	call("Bundle, read from the file", bundle(0))
	call("Bundle, stale epoch", fails("epoch_gone", bundle(7)))
	call("Rebuild", rebuild(2))
	call("Rebuild, nothing to fold", rebuild(0))
	call("Bundle, folded", bundle(1))

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
		call(c.method+" "+c.target+" after Close", status(h, http.StatusServiceUnavailable, c.method, c.target, c.body))
	}
	closed := func(fn func() error) func() error { return fails("server_closed", fn) }
	call("QueryRLC after Close", closed(func() error { _, err := srv.QueryRLC(ctx, 0, 3, labelseq.Seq{0}); return err }))
	call("UpdateBatch after Close", closed(func() error { _, err := srv.UpdateBatch(edge); return err }))
	call("foldInput after Close", closed(func() error { _, _, _, err := srv.foldInput(); return err }))
	late := openSnapshot(t, path)
	call("installFolded after Close", closed(func() error {
		_, _, err := srv.installFolded(late, 1, "late fold")
		return err
	}))
	call("AdoptFolded after Close", closed(func() error { return srv.AdoptFolded(late, nil, 1, 0, "late adopt") }))
	call("ReplState after Close", func() error {
		if rs := srv.ReplState(); rs != (ReplState{}) {
			return fmt.Errorf("%+v, want the zero value", rs)
		}
		return nil
	})
	call("ExportJournal after Close", closed(func() error { _, _, err := srv.ExportJournal(0); return err }))
	call("Bundle after Close", closed(bundle(1)))

	// POST /reload reads the generation it installed, to report its source.
	var sourceErr error
	reloading := NewFromSnapshot(openSnapshot(t, path), Options{SnapshotSource: func() (*core.Snapshot, error) {
		if sourceErr != nil {
			return nil, sourceErr
		}
		return core.OpenVerifiedSnapshot(path)
	}})
	h = reloading.Handler()
	call("POST /reload", status(h, http.StatusOK, "POST", "/reload", ""))
	sourceErr = errors.New("no bundle today")
	call("POST /reload, source fails", status(h, http.StatusInternalServerError, "POST", "/reload", ""))
	sourceErr = nil
	if err := reloading.Close(); err != nil {
		t.Fatal(err)
	}
	call("POST /reload after Close", status(h, http.StatusOK, "POST", "/reload", ""))
}
