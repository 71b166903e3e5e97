// Package bench reproduces the paper's experimental section: one experiment
// per table and figure (Table III, Table IV, Figures 3-7, Table V), each
// printing the same rows/series the paper reports. Experiments accept a
// Config that scales the workloads to the available hardware; the default
// configuration finishes on a laptop while preserving the shapes the paper
// demonstrates (who wins, by what factor, and where the trends bend).
//
// Beyond the paper there is one extension experiment, "ablation" (the
// pruning rules' individual contributions). How fast the serving stack is
// is not this package's question: benchmark/ answers it over real sockets.
package bench
