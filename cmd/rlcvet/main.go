// Command rlcvet runs the repo's custom static-analysis suite: two
// analyzers that enforce invariants the compiler cannot — allocation-free
// hot paths (noalloc) and exhaustive sentinel-to-wire-code mapping
// (errcode) — and, whichever run, a check that every //rlc: comment names
// a known directive.
//
//	rlcvet ./...
//	rlcvet -checks noalloc,errcode ./internal/server
//	rlcvet -list
//
// It loads and type-checks the whole module plus its dependency closure
// from source, giving every analyzer cross-package visibility of //rlc:
// annotations; scripts/lint.sh and CI run it this way.
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/g-rpqs/rlc-go/internal/analysis"
)

const synopsis = "rlcvet — static analysis enforcing rlc-go's noalloc and error-code invariants"

func main() {
	var (
		checks = flag.String("checks", "", "comma-separated analyzer subset to run (default: all)")
		list   = flag.Bool("list", false, "list the analyzers and exit")
		dir    = flag.String("C", ".", "directory to resolve package patterns from")
	)
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlcvet: %v\n\n", err)
		usage()
		os.Exit(2)
	}
	os.Exit(vet(analyzers, *dir, flag.Args()))
}

// vet loads the whole program from source and runs the suite.
func vet(analyzers []*analysis.Analyzer, dir string, patterns []string) int {
	prog, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlcvet: %v\n", err)
		return 2
	}
	diags, err := prog.Run(analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlcvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rlcvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -checks flag to the analyzer subset.
func selectAnalyzers(checks string) ([]*analysis.Analyzer, error) {
	if checks == "" {
		return analysis.All(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := analysis.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-checks selected no analyzers")
	}
	return out, nil
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "%s\n\nusage: rlcvet [flags] [package patterns]\n\nflags:\n", synopsis)
	flag.PrintDefaults()
}
