// Command benchmark is the repository's one performance harness: it runs
// the real rlcbuild, rlcserve, rlccluster and rlcrouter binaries as child
// processes, drives them over loopback sockets with seeded traffic, checks
// every answer against an oracle that was itself checked against product
// BFS, and prints each metric by name with its unit. BENCHMARK.json at the
// repository root names the command (run.sh, which builds this package and
// passes its arguments through), the four workloads and the metrics.
//
//	bash benchmark/run.sh --workload point-hot --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out benchmark/out/result.json
//	bash benchmark/run.sh -compare a.json b.json
//
// With --trace 0 a run measures the end-to-end metrics, tracing off. With
// --trace 1 it replays the head of the same request stream in-process, one
// goroutine, timing calls into each layer's exported functions from
// outside, and reports the per-layer metrics. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
// README.md says why each workload and metric exists and what each layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the serving stack sees, on every workload.
// Bound is the share of the parent's median a metric may lose before a
// change counts as a regression. The timed metrics carry the widest bound
// the driver allows because that is what this host's run-to-run spread
// needs (README.md, "How steady the numbers are"), not because a 20% loss
// is acceptable; bundle_bytes repeats exactly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"server_cpu_us_per_query", "us", "lower", 0.25},
	{"bundle_bytes", "B", "lower", 0.01},
}

// perLayer is what the traced run attributes to single layers. A layer a
// workload does not pass through reports 0 there.
var perLayer = []metricDef{
	{Name: "client.lat_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.lat_max_us", Unit: "us", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.bytes_in_per_op", Unit: "B", Better: "lower"},
	{Name: "client.bytes_out_per_op", Unit: "B", Better: "lower"},
	{Name: "net.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "net.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.handler_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.handler_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.answer_self_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cache_evictions_per_kop", Unit: "count", Better: "lower"},
	{Name: "server.batch_self_us_per_query", Unit: "us", Better: "lower"},
	{Name: "automaton.parse_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "labelseq.mr_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.query_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.query_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "core.batch_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "core.tier_exact_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.tier_filter_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.tier_traversal_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.fallback_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.build_entries", Unit: "count", Better: "lower"},
	{Name: "core.build_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.index_bytes", Unit: "B", Better: "lower"},
	{Name: "core.packed_bytes", Unit: "B", Better: "lower"},
	{Name: "core.bundle_write_ms", Unit: "ms", Better: "lower"},
	{Name: "core.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.open_ms", Unit: "ms", Better: "lower"},
	{Name: "traversal.bibfs_p50_us", Unit: "us", Better: "lower"},
	{Name: "traversal.bibfs_p99_us", Unit: "us", Better: "lower"},
	{Name: "dynamic.append_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "dynamic.overlay_query_p50_us", Unit: "us", Better: "lower"},
	{Name: "dynamic.union_ms", Unit: "ms", Better: "lower"},
	{Name: "server.update_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.fold_s", Unit: "s", Better: "lower"},
	{Name: "server.fold_swap_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.segment_encode_us", Unit: "us", Better: "lower"},
	{Name: "cluster.segment_decode_us", Unit: "us", Better: "lower"},
	{Name: "cluster.bundle_ship_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.follower_cutover_s", Unit: "s", Better: "lower"},
	{Name: "cluster.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.segments_applied", Unit: "count", Better: "higher"},
	{Name: "router.hop_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.follower_share", Unit: "ratio", Better: "higher"},
	{Name: "router.pinned_leader_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.clock_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The first four fields are the line
// the driver reads; the rest goes to the -out file and the text report.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Workload string `json:"workload,omitempty"`
	Trace    bool   `json:"trace,omitempty"`
	// Context holds numbers measured on the way that are not gated: the
	// write-side timings only mixed-repl has, sample counts, hit ratios
	// read from /stats.
	Context map[string]value `json:"context,omitempty"`
	// Spread says how far a metric can be trusted within this one run: for
	// setup_s, (max-min)/median of the set-ups; for the sliced metrics, how
	// thinly the quiet mode was sampled (see quiet).
	Spread map[string]float64 `json:"spread,omitempty"`
	// Slices keeps every slice's value of each sliced metric, and every
	// set-up's duration, so that any other summary than the reported one can
	// be read off the report; the median is printed beside each value.
	Slices map[string][]float64 `json:"slices,omitempty"`
	GenS   float64              `json:"gen_s,omitempty"`
	WallS  float64              `json:"wall_s,omitempty"`
}

func newResult(workload string, trace bool) *result {
	return &result{Workload: workload, Trace: trace,
		Metrics: map[string]value{}, Context: map[string]value{}, Spread: map[string]float64{}}
}

// set records a gated metric by name, taking its unit from the tables.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = value{v, d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}

func (r *result) context(name string, v float64, unit string) { r.Context[name] = value{v, unit} }

// report is the -out file: run metadata and every run made.
type report struct {
	Commit     string    `json:"commit"`
	Dirty      bool      `json:"dirty"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Vertices   int       `json:"vertices"`
	Edges      int       `json:"edges"`
	Seconds    float64   `json:"seconds"`
	SliceS     float64   `json:"slice_s"`
	WallS      float64   `json:"wall_s"`
	Runs       []*result `json:"runs"`
}

type config struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sz       sizing
	// corrupt, when set, damages the generated inputs before the run; the
	// smoke test uses it to prove a wrong expectation fails the run.
	corrupt func(*inputs)
}

func main() {
	var (
		cfg      config
		vertices = flag.Int("vertices", 5000, "vertices of the WN-profile graph")
		trace    = flag.Int("trace", 0, "0 = end-to-end run with tracing off, 1 = traced in-process run for the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "shrink every size (600 vertices, small pool, one set-up) so the whole harness runs in seconds")
		spin     = flag.Int("spin", -1, "internal: become the idle-priority spinner for this CPU (see cpu.go)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments, one row per workload and end-to-end metric")
	)
	flag.StringVar(&cfg.root, "root", ".", "repository root (run.sh passes it)")
	flag.StringVar(&cfg.workload, "workload", "all", "point-hot, batch-cold, point-budget, mixed-repl, or all (each workload untraced, then traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the query pool, the request streams and the write order; the graph is fixed (gen.go, graphSeed)")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.StringVar(&cfg.out, "out", "", "write the full report (metadata, every run, spreads) to this JSON file")
	flag.Parse()

	if *spin >= 0 {
		spinForever(*spin)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two report files"))
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	cfg.trace = *trace != 0
	cfg.sz = defaultSizing(*vertices)
	if *smoke {
		cfg.sz = smokeSizing()
	}
	if err := run(cfg, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// run executes the configured workload (or all of them) and prints the
// report; the last line written to w is the driver's JSON object. It
// returns an error — and the command exits non-zero — when anything failed,
// a single wrong answer included.
func run(cfg config, w io.Writer) error {
	begin := time.Now()
	names := []string{cfg.workload}
	traces := []bool{cfg.trace}
	if cfg.workload == "all" {
		names, traces = workloadNames, []bool{false, true}
	} else if !slices.Contains(workloadNames, cfg.workload) {
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = root
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := buildBinaries(root, bin); err != nil {
		return err
	}
	p, err := newProcs(root, bin)
	if err != nil {
		return err
	}
	defer p.close()
	// Placement (cpu.go): everything on one CPU, no CPU ever halted.
	all, cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	if err := p.startSpinners(cpus); err != nil {
		return err
	}
	p.cpu, p.leaderCPU = cpus[0], cpus[len(cpus)-1]
	unpin, err := pinProcess(all, p.cpu)
	if err != nil {
		return err
	}
	defer unpin()
	// An interrupt must not leave servers behind: tear down, then die by
	// the same signal's conventional status.
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	defer close(done)
	go func() {
		select {
		case s := <-sig:
			p.close()
			fmt.Fprintln(os.Stderr, "benchmark: interrupted:", s)
			os.Exit(130)
		case <-done:
		}
	}()

	rep := &report{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Vertices: cfg.sz.vertices, Seconds: cfg.seconds, SliceS: cfg.sz.slice.Seconds()}
	rep.Commit, rep.Dirty = gitState(root)
	var last *result
	var failed []string
	for _, name := range names {
		in, err := generate(cfg.sz, name, cfg.seed, cfg.seconds)
		if err != nil {
			return fmt.Errorf("%s: generate: %w", name, err)
		}
		if cfg.corrupt != nil {
			cfg.corrupt(in)
		}
		rep.Edges = in.full.NumEdges()
		for _, trace := range traces {
			t0 := time.Now()
			res := newResult(name, trace)
			if trace {
				err = runTraced(cfg, p, in, res)
			} else {
				err = runWorkload(cfg, p, in, res)
			}
			p.stopAll()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res.GenS, res.WallS = in.genS, time.Since(t0).Seconds()
			res.Correct = res.Failed == 0
			if !res.Correct {
				failed = append(failed, name)
			}
			printResult(w, res)
			rep.Runs = append(rep.Runs, res)
			last = res
		}
	}
	rep.WallS = time.Since(begin).Seconds()
	if cfg.out != "" {
		if err := writeJSONFile(cfg.out, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if len(failed) > 0 {
		return fmt.Errorf("wrong or failed answers on %s", strings.Join(failed, ", "))
	}
	return nil
}

// printResult lists every number of one run by name, with its unit.
func printResult(w io.Writer, r *result) {
	mode, defs := "end-to-end", endToEnd
	if r.Trace {
		mode, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "== %s, %s: %d attempted, %d failed, inputs generated in %.2fs, ran %.2fs\n",
		r.Workload, mode, r.Attempted, r.Failed, r.GenS, r.WallS)
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-32s %14.4f %-6s", d.Name, v.Value, v.Unit)
		if s, ok := r.Spread[d.Name]; ok {
			fmt.Fprintf(w, " spread %.3f", s)
		}
		if xs := r.Slices[d.Name]; len(xs) > 0 {
			fmt.Fprintf(w, " median %.4f", median(xs))
		}
		fmt.Fprintln(w)
	}
	for _, name := range slices.Sorted(maps.Keys(r.Context)) {
		v := r.Context[name]
		fmt.Fprintf(w, "  %-30s %14.4f %-6s (not gated)\n", name, v.Value, v.Unit)
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitState names the commit being measured. The driver's checkout is not a
// git repository; there the commit reads "unknown".
func gitState(root string) (commit string, dirty bool) {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, _ := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(st) > 0
}
