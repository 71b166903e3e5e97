package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/automaton"
	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/dynamic"
	"github.com/g-rpqs/rlc-go/internal/snapshot"
)

// TestErrorCodeTable holds errorCode exhaustive: every sentinel this package
// and the packages it imports declare reaches clients with its own wire code,
// however deeply it is wrapped, or is on the exempt list. scripts/lint.sh
// fails on a sentinel declared with errors.New that this file does not name,
// so a new one lands in one of the two tables.
func TestErrorCodeTable(t *testing.T) {
	for _, c := range []struct {
		err  error
		code string
	}{
		{&http.MaxBytesError{Limit: 1}, "body_too_large"},
		{core.ErrVertexRange, "vertex_range"},
		{core.ErrGraphMismatch, "graph_mismatch"},
		{snapshot.ErrCorrupt, "corrupt_snapshot"},
		{core.ErrNotMinimumRepeat, "not_minimum_repeat"},
		{core.ErrConstraintTooLong, "constraint_too_long"},
		{core.ErrUnknownLabel, "unknown_label"},
		{core.ErrEmptyConstraint, "empty_constraint"},
		{dynamic.ErrDeletionsUnsupported, "deletions_unsupported"},
		{errNotMutable, "immutable"},
		{errNotLeader, "not_leader"},
		{errSeqFolded, "behind_bundle"},
		{errSeqAhead, "foreign_log"},
		{errEpochGone, "epoch_gone"},
		{automaton.ErrTooLarge, "expression_too_large"},
		{automaton.ErrEmpty, "empty_expression"},
		{errServerClosed, "server_closed"},
		{context.Canceled, "canceled"},
		{context.DeadlineExceeded, "canceled"},
	} {
		if got := errorCode(fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", c.err))); got != c.code {
			t.Errorf("errorCode(%v) = %q, want %q", c.err, got, c.code)
		}
	}
	// The ways a /batch body is refused carry no wire code, as
	// encoding/json's errors for the same bodies never did.
	for _, err := range []error{
		errBatchSyntax, errBatchField, errBatchTrailing, errBatchComposite, errBatchTooMany, errBatchSegments,
	} {
		if got := errorCode(fmt.Errorf("outer: %w", err)); got != "" {
			t.Errorf("errorCode(%v) = %q, want no code", err, got)
		}
	}
	if got := errorCode(nil); got != "" {
		t.Errorf("errorCode(nil) = %q", got)
	}
}
