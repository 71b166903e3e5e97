package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// testBundle renders a small three-section bundle.
func testBundle(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	w.Add(1, []byte{0xde, 0xad})
	w.Add(7, nil)
	w.Add(3, Bytes([]int32{1, -2, 3}))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := testBundle(t)
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Sections()); got != 3 {
		t.Fatalf("sections = %d, want 3", got)
	}
	sec, ok := f.Section(1)
	if !ok || !bytes.Equal(sec, []byte{0xde, 0xad}) {
		t.Fatalf("section 1 = %x, %v", sec, ok)
	}
	if sec, ok = f.Section(7); !ok || len(sec) != 0 {
		t.Fatalf("empty section 7 = %x, %v", sec, ok)
	}
	got, err := Array[int32](f, 3, 3, "test")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Fatalf("section 3 = %v, %v", got, err)
	}
	if _, err := Array[int32](f, 3, 4, "test"); err == nil || err.Error() != "rlc: corrupt snapshot: test section is 12 bytes, want 16" {
		t.Fatalf("section 3 as 4 int32s: %v", err)
	}
	if _, err := Array[int32](f, 99, 0, "test"); err == nil || err.Error() != "rlc: corrupt snapshot: missing test section (id 99)" {
		t.Fatalf("missing section 99: %v", err)
	}
	if _, ok := f.Section(99); ok {
		t.Fatal("found nonexistent section 99")
	}
}

func mustSection(t *testing.T, f *File, id uint32) []byte {
	t.Helper()
	sec, ok := f.Section(id)
	if !ok {
		t.Fatalf("missing section %d", id)
	}
	return sec
}

// TestOpenFile: Open reads the whole file, so what it returns survives the
// file being rewritten or truncated in place, and an empty file is corrupt.
func TestOpenFile(t *testing.T) {
	data := testBundle(t)
	path := filepath.Join(t.TempDir(), "t.rlcs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(data))
	}
	if err := os.WriteFile(path, make([]byte, len(data)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustSection(t, f, 1), []byte{0xde, 0xad}) {
		t.Fatal("section 1 changed with the file")
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of an empty file: %v, want ErrCorrupt", err)
	}
}

// TestTruncation feeds every prefix of a valid bundle to the reader: each
// must either fail with a typed ErrCorrupt or (when the cut lands beyond the
// table) parse with intact sections still verifiable — never panic.
func TestTruncation(t *testing.T) {
	data := testBundle(t)
	for n := 0; n < len(data); n++ {
		f, err := OpenBytes(data[:n])
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("prefix %d: error not typed ErrCorrupt: %v", n, err)
			}
			continue
		}
		// Structural parse can succeed only if every table entry still fits;
		// checksums must still hold for whatever is claimed in bounds.
		if err := f.VerifyAll(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: verify error not typed: %v", n, err)
		}
	}
}

// TestMutations corrupts targeted container fields and requires a typed
// error from parse or verification.
func TestMutations(t *testing.T) {
	base := testBundle(t)
	le := binary.LittleEndian
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"magic", func(b []byte) { b[0] = 'X' }},
		{"version", func(b []byte) { le.PutUint32(b[4:], 99) }},
		{"count-garbage", func(b []byte) { le.PutUint32(b[8:], 1<<30) }},
		{"table-crc", func(b []byte) { b[12] ^= 0xff }},
		{"section-offset-oob", func(b []byte) {
			// First table entry's offset field.
			le.PutUint64(b[headerSize+8:], uint64(len(b)+8))
			fixTableCRC(b)
		}},
		{"section-offset-misaligned", func(b []byte) {
			le.PutUint64(b[headerSize+8:], le.Uint64(b[headerSize+8:])+1)
			fixTableCRC(b)
		}},
		{"section-length-oob", func(b []byte) {
			le.PutUint64(b[headerSize+16:], uint64(len(b)))
			fixTableCRC(b)
		}},
		{"duplicate-id", func(b []byte) {
			// Rename section 7 to 1.
			le.PutUint32(b[headerSize+tableEntrySize:], 1)
			fixTableCRC(b)
		}},
		{"overlap", func(b []byte) {
			// Point section 3 at section 1's payload region.
			first := le.Uint64(b[headerSize+8:])
			le.PutUint64(b[headerSize+2*tableEntrySize+8:], first)
			fixTableCRC(b)
		}},
		{"payload-bitflip", func(b []byte) {
			off := le.Uint64(b[headerSize+8:])
			b[off] ^= 0x01
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), base...)
			tc.mutate(b)
			f, err := OpenBytes(b)
			if err == nil {
				err = f.VerifyAll()
			}
			if err == nil {
				t.Fatal("mutation went undetected")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not typed ErrCorrupt: %v", err)
			}
		})
	}
}

// fixTableCRC recomputes the header's table checksum after a test mutated
// the table, so the mutation under test is reached instead of masked.
func fixTableCRC(b []byte) {
	le := binary.LittleEndian
	count := int(le.Uint32(b[8:]))
	table := b[headerSize : headerSize+count*tableEntrySize]
	le.PutUint32(b[12:], crc32.Checksum(table, castagnoli))
}

// pair and triple have the layouts of core's packed group (hub i32, set
// u32) and set descriptor (off, base, span u32): structs of 4-byte words,
// the first as wide as an int64.
type (
	pair struct {
		Hub int32
		Set uint32
	}
	triple struct{ Off, Base, Span uint32 }
)

// TestViewsRoundTrip runs the codec with the host order forced each way, so
// the big-endian path runs on any host: every element type the bundle uses,
// from an aligned and a misaligned buffer, must decode to the memory image
// encoding/binary gives in that order, and encode back to the on-disk bytes.
func TestViewsRoundTrip(t *testing.T) {
	checkCodec(t, []int32{0, 1, -1, 1 << 30, -(1 << 30), 0x01020304})
	checkCodec(t, []uint32{0, 1, 1<<32 - 1, 0x01020304})
	checkCodec(t, []int64{0, 1, -1, 1 << 40, -(1 << 40), 0x0102030405060708})
	checkCodec(t, []uint64{0, 1, 1<<64 - 1, 0x0102030405060708})
	checkCodec(t, []pair{{0x01020304, 0x05060708}, {-1, 0}})
	checkCodec(t, []triple{{0x01020304, 0x05060708, 0x090a0b0c}, {1, 2, 3}})

	// A type whose layout is not its fields' words back to back is refused.
	for _, bad := range []func(){
		func() {
			encode([]struct {
				A uint32
				B uint64
			}{{}}, true)
		},
		func() { encode([]int{0}, true) },
		func() { view[struct{}](nil, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("codec accepted a type without a fixed word layout")
				}
			}()
			bad()
		}()
	}
}

func checkCodec[T any](t *testing.T, want []T) {
	t.Helper()
	var disk bytes.Buffer
	if err := binary.Write(&disk, binary.LittleEndian, want); err != nil {
		t.Fatal(err)
	}
	buf := raw(make([]uint64, disk.Len()/8+2)) // 8-byte aligned
	for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
		little := order == binary.LittleEndian
		var mem bytes.Buffer
		if err := binary.Write(&mem, order, want); err != nil {
			t.Fatal(err)
		}
		for _, shift := range []int{0, 1} {
			b := buf[shift : shift+disk.Len()]
			copy(b, disk.Bytes())
			got := view[T](b, little)
			if !bytes.Equal(raw(got), mem.Bytes()) {
				t.Fatalf("%T on a %v host, offset %d: memory % x, want % x", want, order, shift, raw(got), mem.Bytes())
			}
			if aliased, zeroCopy := unsafe.Pointer(unsafe.SliceData(got)) == unsafe.Pointer(&b[0]), little && shift == 0; aliased != zeroCopy {
				t.Fatalf("%T on a %v host, offset %d: view aliases the section = %v, want %v", want, order, shift, aliased, zeroCopy)
			}
			if back := encode(got, little); !bytes.Equal(back, disk.Bytes()) {
				t.Fatalf("%T on a %v host, offset %d: encoded % x, want % x", want, order, shift, back, disk.Bytes())
			}
		}
	}
}
