// Package bench reproduces the paper's experimental section: one experiment
// per table and figure (Table III, Table IV, Figures 3-7, Table V), each
// printing the same rows/series the paper reports. Experiments accept a
// Config that scales the workloads to the available hardware; the default
// configuration finishes on a laptop while preserving the shapes the paper
// demonstrates (who wins, by what factor, and where the trends bend).
//
// Beyond the paper, extension experiments measure what this repo adds:
// "ablation" (the pruning rules' individual contributions), "batch"
// (concurrent batch-query throughput), and "ingest", "budget" and "repl" (the
// mutable, size-budgeted and replicated serving layers).
package bench
