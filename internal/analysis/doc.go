// Package analysis is the repo's static-analysis suite: three custom
// analyzers that machine-check the invariants the concurrent serving stack
// rests on, plus the self-contained framework that runs them (the container
// deliberately carries no module dependencies, so the framework mirrors the
// golang.org/x/tools/go/analysis API shape on the standard library alone —
// go/ast + go/types over packages enumerated with `go list -json -deps`).
//
// The analyzers, surfaced through cmd/rlcvet:
//
//   - viewescape: zero-copy slices produced by //rlc:view accessors are
//     borrows of mmap'd memory; storing one to a struct field, global,
//     channel, or returning it from an unannotated function is a vet error.
//   - noalloc: functions annotated //rlc:noalloc must contain no allocating
//     operations — no make/new, growing append, interface boxing, closure,
//     or string concatenation — and may only call callees that are
//     themselves annotated, allowlisted, or proven allocation-free;
//     deliberate cold-path allocations carry an //rlc:allocok waiver.
//   - errcode: every typed error sentinel surfaced by the serving layer
//     must be mapped to a machine-readable wire code in the function
//     annotated //rlc:errcode; adding a sentinel without a code is a vet
//     error (exempt a sentinel with //rlc:errcode-exempt).
//
// Generation pins need no analyzer: internal/server takes every one through
// Store.with, which releases it with defer, and scripts/lint.sh fails on a
// refcount call anywhere else in the package.
//
// Annotations are ordinary //rlc:<name> directive comments on the
// declaration they govern, so the invariant travels with the code it
// protects and the analyzers need no hard-coded symbol lists.
package analysis
