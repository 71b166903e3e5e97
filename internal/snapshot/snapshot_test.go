package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// testBundle renders a small three-section bundle.
func testBundle(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	w.Add(1, []byte{0xde, 0xad})
	w.Add(7, nil)
	w.Add(3, I32Bytes([]int32{1, -2, 3}))
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
	got := I32s[int32](mustSection(t, f, 3))
	if len(got) != 3 || got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Fatalf("section 3 = %v", got)
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

func TestViewsRoundTrip(t *testing.T) {
	i32 := []int32{0, 1, -1, 1 << 30, -(1 << 30)}
	if got := I32s[int32](I32Bytes(i32)); len(got) != len(i32) {
		t.Fatalf("I32s len = %d", len(got))
	} else {
		for i := range i32 {
			if got[i] != i32[i] {
				t.Fatalf("I32s[%d] = %d, want %d", i, got[i], i32[i])
			}
		}
	}
	i64 := []int64{0, 1, -1, 1 << 40, -(1 << 40)}
	got := I64s(I64Bytes(i64))
	for i := range i64 {
		if got[i] != i64[i] {
			t.Fatalf("I64s[%d] = %d, want %d", i, got[i], i64[i])
		}
	}
	// A misaligned buffer must take the copy path and still decode right.
	raw := make([]byte, 4*3+1)
	copy(raw[1:], I32Bytes([]int32{5, -6, 7}))
	odd := I32s[int32](raw[1:])
	if odd[0] != 5 || odd[1] != -6 || odd[2] != 7 {
		t.Fatalf("misaligned I32s = %v", odd)
	}
}
