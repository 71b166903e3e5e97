package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Report is the machine-readable rendering of one rlcbench run — what
// `rlcbench -json <file>` writes.
type Report struct {
	// Generated is the RFC 3339 wall time of the run.
	Generated string `json:"generated"`
	// GoVersion and the processor fields pin the environment the numbers
	// came from; absolute comparisons across machines are meaningless
	// without them.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Commit and Dirty are the binary's vcs.revision and vcs.modified build
	// settings: which tree the numbers came from. Both read "unknown" when
	// the binary carries none (go run, go test).
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
	// Experiments lists each experiment run, in execution order.
	Experiments []ReportExperiment `json:"experiments"`
}

// ReportExperiment is one experiment's results within a Report.
type ReportExperiment struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Seconds float64  `json:"seconds"`
	Tables  []*Table `json:"tables"`
}

// NewReport stamps a report with the current environment.
func NewReport() *Report {
	r := &Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				r.Commit = s.Value
			case "vcs.modified":
				r.Dirty = s.Value
			}
		}
	}
	return r
}

// Add records one experiment's tables and wall time.
func (r *Report) Add(e Experiment, tables []*Table, elapsed time.Duration) {
	r.Experiments = append(r.Experiments, ReportExperiment{
		ID:      e.ID,
		Title:   e.Title,
		Seconds: elapsed.Seconds(),
		Tables:  tables,
	})
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
