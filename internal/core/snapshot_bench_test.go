package core

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/gen"
)

// benchArtifacts is the shared fixture of the open-path benchmarks: one ER
// index with >1e5 entries, written as a bundle.
var benchArtifacts struct {
	once       sync.Once
	bundlePath string // v2 snapshot bundle on disk
	entries    int64
}

func openBenchArtifacts(b *testing.B) {
	b.Helper()
	a := &benchArtifacts
	a.once.Do(func() {
		g, err := gen.ER(10_000, 40_000, 4, 42)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := Build(g, Options{K: 2})
		if err != nil {
			b.Fatal(err)
		}
		a.entries = ix.NumEntries()
		dir, err := os.MkdirTemp("", "rlcbench")
		if err != nil {
			b.Fatal(err)
		}
		a.bundlePath = filepath.Join(dir, "er.rlcs")
		if err := ix.SaveSnapshotFile(a.bundlePath); err != nil {
			b.Fatal(err)
		}
	})
	if a.entries < 100_000 {
		b.Fatalf("benchmark fixture has only %d entries; grow the ER graph", a.entries)
	}
}

// BenchmarkOpenSnapshot measures the v2 open path: one read of the file +
// structural validation, no per-entry decoding.
func BenchmarkOpenSnapshot(b *testing.B) {
	openBenchArtifacts(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := OpenSnapshot(benchArtifacts.bundlePath)
		if err != nil {
			b.Fatal(err)
		}
		if s.Index().NumEntries() != benchArtifacts.entries {
			b.Fatal("entry count drifted")
		}
		s.Close()
	}
}

// BenchmarkOpenSnapshotVerified adds the full checksum pass a server runs
// before hot-swapping a bundle in.
func BenchmarkOpenSnapshotVerified(b *testing.B) {
	openBenchArtifacts(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := OpenSnapshot(benchArtifacts.bundlePath)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
