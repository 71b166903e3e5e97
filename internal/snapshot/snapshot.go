package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
)

// Magic begins every bundle file.
const Magic = "RLCS"

// Version is the container format version this package reads and writes.
// (The RLC serialization lineage counts the legacy single-index format as
// v1, so the first bundle container is v2.)
const Version = 2

// ErrCorrupt is wrapped by every error that means the bundle bytes are not a
// well-formed snapshot: bad magic, truncation, checksum mismatches, and every
// structural violation found by the payload decoders layered on top.
var ErrCorrupt = errors.New("rlc: corrupt snapshot")

// Corruptf builds an ErrCorrupt-wrapping error. Payload decoders (the v2
// reader in internal/core) use it so all corruption reports classify
// identically, no matter which layer noticed.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

const (
	headerSize     = 16 // magic + version + count + table crc
	tableEntrySize = 24 // id + crc + offset + length
	align          = 8
)

// maxSections bounds the section count a reader accepts. The RLC bundle uses
// ~14; the bound only rejects garbage counts before they size an allocation.
const maxSections = 1 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SectionInfo describes one section of an open bundle, as recorded in the
// section table.
type SectionInfo struct {
	ID     uint32
	Offset uint64
	Length uint64
	CRC    uint32
}

// Writer accumulates sections and renders the bundle. Sections are written
// in the order added; ids must be unique.
type Writer struct {
	secs []writerSection
	seen map[uint32]bool
}

type writerSection struct {
	id   uint32
	data []byte
}

// NewWriter returns an empty bundle writer.
func NewWriter() *Writer {
	return &Writer{seen: make(map[uint32]bool)}
}

// Add appends a section. The data is not copied; it must stay unchanged
// until WriteTo returns. Adding a duplicate id panics — section ids are a
// closed set chosen by the caller, so a duplicate is a programming error.
func (w *Writer) Add(id uint32, data []byte) {
	if w.seen[id] {
		panic(fmt.Sprintf("snapshot: duplicate section id %d", id))
	}
	w.seen[id] = true
	w.secs = append(w.secs, writerSection{id: id, data: data})
}

// WriteTo renders the bundle: header, checksummed section table, then the
// 8-byte-aligned payloads.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	le := binary.LittleEndian
	table := make([]byte, len(w.secs)*tableEntrySize)
	offset := alignUp(uint64(headerSize + len(table)))
	for i, s := range w.secs {
		e := table[i*tableEntrySize:]
		le.PutUint32(e[0:], s.id)
		le.PutUint32(e[4:], crc32.Checksum(s.data, castagnoli))
		le.PutUint64(e[8:], offset)
		le.PutUint64(e[16:], uint64(len(s.data)))
		offset = alignUp(offset + uint64(len(s.data)))
	}

	head := make([]byte, headerSize)
	copy(head, Magic)
	le.PutUint32(head[4:], Version)
	le.PutUint32(head[8:], uint32(len(w.secs)))
	le.PutUint32(head[12:], crc32.Checksum(table, castagnoli))

	var written int64
	emit := func(b []byte) error {
		n, err := out.Write(b)
		written += int64(n)
		return err
	}
	if err := emit(head); err != nil {
		return written, err
	}
	if err := emit(table); err != nil {
		return written, err
	}
	var pad [align]byte
	pos := uint64(headerSize + len(table))
	for _, s := range w.secs {
		if p := alignUp(pos) - pos; p > 0 {
			if err := emit(pad[:p]); err != nil {
				return written, err
			}
			pos += p
		}
		if err := emit(s.data); err != nil {
			return written, err
		}
		pos += uint64(len(s.data))
	}
	return written, nil
}

func alignUp(v uint64) uint64 { return (v + align - 1) &^ (align - 1) }

// File is an open bundle: the raw bytes, held in the heap, plus the parsed
// section table.
type File struct {
	data []byte
	secs []SectionInfo
	byID map[uint32]int
}

// Open reads path into one heap buffer of exactly the file's size and
// parses the section table. Sections and the typed views over them alias
// that buffer, which lives as long as anything references it; changing the
// file afterwards, in place or by rename, changes nothing already read. A
// file that ends before its stat size (truncated mid-read) fails with
// ErrCorrupt.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > math.MaxInt {
		return nil, Corruptf("%s: file size %d overflows the address space", path, size)
	}
	data := make([]byte, size)
	if n, err := io.ReadFull(f, data); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, Corruptf("%s: file ended after %d of %d bytes", path, n, size)
		}
		return nil, err
	}
	bf, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// OpenBytes parses an in-memory bundle. The File aliases data, which must
// stay unchanged while the File is in use. Used to embed bundles and to fuzz
// the reader without a filesystem round-trip.
func OpenBytes(data []byte) (*File, error) {
	return parse(data)
}

func parse(data []byte) (*File, error) {
	le := binary.LittleEndian
	if len(data) < headerSize {
		return nil, Corruptf("file of %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:4]) != Magic {
		return nil, Corruptf("bad magic %q (want %q)", data[:4], Magic)
	}
	if v := le.Uint32(data[4:]); v != Version {
		return nil, Corruptf("unsupported bundle version %d (want %d)", v, Version)
	}
	count := int(le.Uint32(data[8:]))
	if count < 0 || count > maxSections {
		return nil, Corruptf("implausible section count %d", count)
	}
	tableEnd := headerSize + count*tableEntrySize
	if tableEnd > len(data) {
		return nil, Corruptf("section table truncated: need %d bytes, have %d", tableEnd, len(data))
	}
	table := data[headerSize:tableEnd]
	if got, want := crc32.Checksum(table, castagnoli), le.Uint32(data[12:]); got != want {
		return nil, Corruptf("section table checksum mismatch (%08x != %08x)", got, want)
	}

	f := &File{data: data, byID: make(map[uint32]int, count)}
	for i := 0; i < count; i++ {
		e := table[i*tableEntrySize:]
		s := SectionInfo{
			ID:     le.Uint32(e[0:]),
			CRC:    le.Uint32(e[4:]),
			Offset: le.Uint64(e[8:]),
			Length: le.Uint64(e[16:]),
		}
		if s.Offset%align != 0 {
			return nil, Corruptf("section %d offset %d is not %d-byte aligned", s.ID, s.Offset, align)
		}
		if s.Offset < uint64(tableEnd) || s.Offset > uint64(len(data)) ||
			s.Length > uint64(len(data))-s.Offset {
			return nil, Corruptf("section %d spans [%d, %d+%d), outside the %d-byte file",
				s.ID, s.Offset, s.Offset, s.Length, len(data))
		}
		if _, dup := f.byID[s.ID]; dup {
			return nil, Corruptf("duplicate section id %d", s.ID)
		}
		f.byID[s.ID] = i
		f.secs = append(f.secs, s)
	}
	// Overlapping sections never come out of the Writer; reject them so a
	// hostile table cannot alias one payload region under two ids.
	ordered := append([]SectionInfo(nil), f.secs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Offset < ordered[j].Offset })
	for i := 1; i < len(ordered); i++ {
		prev := ordered[i-1]
		if prev.Offset+prev.Length > ordered[i].Offset {
			return nil, Corruptf("sections %d and %d overlap", prev.ID, ordered[i].ID)
		}
	}
	return f, nil
}

// Sections lists the section table in file order.
func (f *File) Sections() []SectionInfo {
	return append([]SectionInfo(nil), f.secs...)
}

// Bytes returns the complete raw bundle — header, section table, and
// payloads. The slice aliases the File's buffer and must not be mutated.
func (f *File) Bytes() []byte { return f.data }

// Size returns the total byte size of the open bundle.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Section returns the payload bytes of the section with the given id. The
// slice aliases the File's buffer and must not be mutated.
func (f *File) Section(id uint32) ([]byte, bool) {
	i, ok := f.byID[id]
	if !ok {
		return nil, false
	}
	s := f.secs[i]
	return f.data[s.Offset : s.Offset+s.Length : s.Offset+s.Length], true
}

// VerifySection checks the payload checksum of one section.
func (f *File) VerifySection(id uint32) error {
	i, ok := f.byID[id]
	if !ok {
		return Corruptf("missing section %d", id)
	}
	s := f.secs[i]
	if got := crc32.Checksum(f.data[s.Offset:s.Offset+s.Length], castagnoli); got != s.CRC {
		return Corruptf("section %d checksum mismatch (%08x != %08x)", id, got, s.CRC)
	}
	return nil
}

// VerifyAll checks every section's payload checksum — the integrity pass
// Open leaves to the caller.
func (f *File) VerifyAll() error {
	for _, s := range f.secs {
		if err := f.VerifySection(s.ID); err != nil {
			return err
		}
	}
	return nil
}
