// Package analysis is the repo's static-analysis suite: two custom
// analyzers that machine-check the invariants the serving stack rests on,
// plus the self-contained framework that runs them (the container
// deliberately carries no module dependencies, so the framework mirrors the
// golang.org/x/tools/go/analysis API shape on the standard library alone —
// go/ast + go/types over packages enumerated with `go list -json -deps`).
//
// The analyzers, surfaced through cmd/rlcvet:
//
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
// Annotations are ordinary //rlc:<name> directive comments on the
// declaration they govern, so the invariant travels with the code it
// protects and the analyzers need no hard-coded symbol lists. Whatever
// analyzers run, an //rlc: comment naming no directive is a finding: a
// misspelling would otherwise switch its check off silently.
package analysis
