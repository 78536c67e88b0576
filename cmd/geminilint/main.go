// Command geminilint runs the project's static-analysis suite
// (internal/lint) over module packages: determinism, lock hygiene, hot-path
// allocation, error classification and the exported-doc contract. It is the CI lint gate; see docs/lint.md for
// each analyzer's invariant, directive and suppression syntax.
//
// Usage:
//
//	geminilint [-list] [-only a,b] [pattern ...]
//
// Patterns are import paths, directories or ./...-style wildcards; the
// default is ./... from the enclosing module. Exit status is 1 when any
// finding is reported and 2 on load or usage errors, so CI distinguishes
// "code is dirty" from "lint is broken".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gemini/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: geminilint [-list] [-only a,b] [pattern ...]")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s\n    %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		analyzers = selectAnalyzers(analyzers, *only)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := lint.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	if len(pkgs) == 0 {
		fatal(fmt.Errorf("no packages match %v", patterns))
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers filters the suite by the -only list, failing on unknown
// names so a typo cannot silently skip a check.
func selectAnalyzers(all []*lint.Analyzer, only string) []*lint.Analyzer {
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			fatal(fmt.Errorf("unknown analyzer %q (run geminilint -list)", name))
		}
		out = append(out, a)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "geminilint: %v\n", err)
	os.Exit(2)
}
