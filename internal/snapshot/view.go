package snapshot

import (
	"encoding/binary"
	"unsafe"
)

// hostLittleEndian reports whether the host's native byte order matches the
// bundle's on-disk order. On the (overwhelmingly common) little-endian
// hosts, typed views are direct casts of the bundle bytes; big-endian hosts
// take the decode-and-copy path below, so bundles stay portable.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// HostLittleEndian reports whether the host's native byte order matches the
// bundle's on-disk (little-endian) order — the precondition for every
// zero-copy cast. Exported so payload decoders (internal/core's entry-array
// view) share one probe instead of re-deriving it.
func HostLittleEndian() bool { return hostLittleEndian }

// viewable reports whether b can be reinterpreted in place as elements of
// size and alignment elem: native byte order, suitable pointer alignment,
// and a length that divides evenly. The container aligns every section to 8
// bytes and Open's buffer is 8-byte aligned, so sections of an opened file
// always qualify on little-endian hosts; the checks make OpenBytes safe on
// arbitrarily sliced buffers too.
func viewable(b []byte, elem uintptr) bool {
	return hostLittleEndian && len(b)%int(elem) == 0 &&
		(len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%elem == 0)
}

// I32s returns b as little-endian 32-bit values of any int32-kinded type
// (vertex ids, labels) — a zero-copy view when possible, a decoded copy
// otherwise. The caller must have checked len(b)%4 == 0.
func I32s[T ~int32](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	if viewable(b, 4) {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]T, len(b)/4)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// U32s returns b as little-endian uint32s (the tier union-set id arrays) —
// a zero-copy view when possible, a decoded copy otherwise. The caller must
// have checked len(b)%4 == 0.
func U32s(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if viewable(b, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// I64s returns b as little-endian int64s — a zero-copy view when possible, a
// decoded copy otherwise. The caller must have checked len(b)%8 == 0.
func I64s(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if viewable(b, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// U64s returns b as little-endian uint64s (the packed MR-set pool) — a
// zero-copy view when possible, a decoded copy otherwise. The caller must
// have checked len(b)%8 == 0.
func U64s(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if viewable(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// I32Bytes returns the raw little-endian bytes of s for writing — the
// inverse view of I32s, copying only on big-endian hosts.
func I32Bytes[T ~int32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

// U32Bytes returns the raw little-endian bytes of s for writing.
func U32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// I64Bytes returns the raw little-endian bytes of s for writing.
func I64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// U64Bytes returns the raw little-endian bytes of s for writing.
func U64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], v)
	}
	return out
}
