package snapshot

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"unsafe"
)

// hostLittleEndian reports whether the host's native byte order matches the
// bundle's on-disk order. On the (overwhelmingly common) little-endian
// hosts, typed views are direct casts of the bundle bytes; big-endian hosts
// take the decode-and-copy path, so bundles stay portable.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Array fetches the required section id and returns it as exactly n
// elements of T, stored little-endian. T is a fixed-width integer type or a
// struct of same-width integer fields with no padding, whose memory layout
// is then its on-disk layout. The result is a zero-copy view of the
// section when the host is little-endian and the bytes are aligned for T,
// and a decoded copy otherwise. A missing section or one of any other
// length is corrupt; what names the section in the error.
func Array[T any](f *File, id uint32, n int64, what string) ([]T, error) {
	b, ok := f.Section(id)
	if !ok {
		return nil, Corruptf("missing %s section (id %d)", what, id)
	}
	if want := n * int64(unsafe.Sizeof(*new(T))); int64(len(b)) != want {
		return nil, Corruptf("%s section is %d bytes, want %d", what, len(b), want)
	}
	return view[T](b, hostLittleEndian), nil
}

// Bytes returns the little-endian on-disk bytes of s for writing — the
// inverse of Array, aliasing s on little-endian hosts and copying only on
// big-endian ones.
func Bytes[T any](s []T) []byte {
	return encode(s, hostLittleEndian)
}

// view decodes b as elements of T for a host of the given byte order; b's
// length is a multiple of T's size. T's word layout is checked on every
// host, so a section type the big-endian path would swap wrong panics in
// any test run.
func view[T any](b []byte, little bool) []T {
	word := wordSize(reflect.TypeFor[T]())
	if len(b) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(*new(T)))
	if little && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(*new(T)) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	out := make([]T, len(b)/size)
	copy(raw(out), b)
	if !little {
		swapWords(raw(out), word)
	}
	return out
}

// encode renders s little-endian for a host of the given byte order.
func encode[T any](s []T, little bool) []byte {
	word := wordSize(reflect.TypeFor[T]())
	if little {
		return raw(s)
	}
	out := slices.Clone(raw(s))
	swapWords(out, word)
	return out
}

// raw returns the memory of s as bytes.
func raw[T any](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

// swapWords reverses each word-byte run of b: the byte-order change between
// the on-disk and a big-endian host's memory layout.
func swapWords(b []byte, word int) {
	for i := 0; i < len(b); i += word {
		slices.Reverse(b[i : i+word])
	}
}

// wordSize returns the width of t's integer fields, the unit the big-endian
// path swaps. It is derived from the field types rather than from t's size
// or alignment: an int64 and a pair of uint32s are both 8 bytes, and an
// int64 is only 4-byte aligned on 386. A struct qualifies when its n fields
// are each of the width size/n, which leaves no room for padding. Any other
// t panics — a section type is a programming decision, not bundle input.
func wordSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Int8, reflect.Uint8, reflect.Int16, reflect.Uint16,
		reflect.Int32, reflect.Uint32, reflect.Int64, reflect.Uint64:
		return int(t.Size())
	case reflect.Struct:
		n := t.NumField()
		word := int(t.Size()) / max(n, 1)
		ok := n > 0 && word*n == int(t.Size())
		for i := range n {
			ok = ok && wordSize(t.Field(i).Type) == word
		}
		if ok {
			return word
		}
	}
	panic(fmt.Sprintf("snapshot: %v is not a fixed-width integer or a struct of same-width integers without padding", t))
}
