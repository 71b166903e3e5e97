package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareReports prints one row per workload and end-to-end metric of two
// -out files: both values, how much worse the second is, the bound, and a
// verdict. "worse" means the second run lost more than the bound;
// "unresolved" means either run's own spread (result.Spread) is wider than
// the bound, so the pair cannot show a difference that small either way.
// "median worse" marks what the best decile of slices cannot see: the
// reported values are within the bound but the medians over the same slices
// are not, which is what a stall in fewer than nine slices in ten looks
// like (a periodic collection, a fold, a lock convoy) — and also what a slow
// spell of the host looks like, so it asks for a second pair of runs rather
// than failing the first. It returns an error when any row is worse.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %.12s dirty=%v seed %d\nb: %s  commit %.12s dirty=%v seed %d\n",
		pathA, a.Commit, a.Dirty, a.Seed, pathB, b.Commit, b.Dirty, b.Seed)
	fmt.Fprintf(w, "%-13s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	worse := 0
	for _, name := range workloadNames {
		ra, rb := a.untraced(name), b.untraced(name)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, oka := ra.Metrics[d.Name]
			vb, okb := rb.Metrics[d.Name]
			if !oka || !okb || va.Value == 0 {
				continue
			}
			loss := lossOf(d, va.Value, vb.Value)
			verdict := "ok"
			switch sa, sb := ra.Slices[d.Name], rb.Slices[d.Name]; {
			case ra.Spread[d.Name] > d.Bound || rb.Spread[d.Name] > d.Bound:
				verdict = "unresolved"
			case loss > d.Bound:
				verdict = "worse"
				worse++
			case len(sa) > 0 && len(sb) > 0 && lossOf(d, median(sa), median(sb)) > d.Bound:
				verdict = fmt.Sprintf("median worse (%.4f -> %.4f)", median(sa), median(sb))
			}
			fmt.Fprintf(w, "%-13s %-24s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				name, d.Name, va.Value, vb.Value, loss*100, d.Bound*100, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

// lossOf is how much worse b is than a, as a share of a; negative when b is
// better.
func lossOf(d metricDef, a, b float64) float64 {
	loss := (b - a) / a
	if d.Better == "higher" {
		loss = -loss
	}
	return loss
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// untraced returns the report's end-to-end run of a workload, nil if none.
func (r *report) untraced(workload string) *result {
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Trace {
			return run
		}
	}
	return nil
}
