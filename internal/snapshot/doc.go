// Package snapshot implements the v2 bundle container: a single
// self-describing file holding checksummed binary sections that are read
// into one heap buffer and handed out as typed views of it.
//
// The container knows nothing about graphs or indexes — it stores opaque
// sections identified by small integer ids. internal/core defines the
// section ids and payload layouts of the RLC snapshot bundle on top of it
// (see core's snapshot.go and the "Snapshot format v2" section of
// ARCHITECTURE.md for the byte layout).
//
// A bundle is laid out as
//
//	header:  magic "RLCS" | version u32 | section count u32 | table crc32c u32
//	table:   per section: id u32 | payload crc32c u32 | offset u64 | length u64
//	payload: section bytes, each section 8-byte aligned, zero padding between
//
// all little-endian. Open reads the file into an exact-size buffer and
// validates the header and table structurally. Section payload checksums are
// verified by VerifySection/VerifyAll, which the serving layer runs before
// hot-swapping a freshly opened bundle in. The buffer is ordinary heap
// memory: it lives as long as a view into it does, and the garbage collector
// reclaims it after that.
//
// Typed array sections go through one codec: Array reads a section as
// exactly n elements of a fixed-width integer type or a struct of
// same-width integer fields — a zero-copy view of the buffer on
// little-endian hosts when the bytes are aligned, a decoded copy otherwise —
// and Bytes renders a slice of one for the Writer. It is the only code that
// casts bundle bytes to typed memory.
//
// Every corruption detected anywhere in the container wraps ErrCorrupt, so
// callers can classify failures with errors.Is regardless of which layer
// noticed first.
package snapshot
