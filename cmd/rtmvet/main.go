// Command rtmvet is the project's custom static checker. It enforces
// the invariants the reproduction's claims rest on — determinism of the
// simulated timeline, zero allocation on //rtm:hot paths, nil-guarded
// flight-recorder calls, and parameter-sourced rng seeds — at compile
// time, complementing the dynamic regression tests.
//
// Usage:
//
//	rtmvet [-json] [-fix] [-passes p1,p2] [-tags t1,t2] [packages]
//
// Packages are directories or ./...-style patterns (default ./...).
// Exit status: 0 clean, 1 findings, 2 load/usage errors.
//
// Findings can be suppressed per line with "//rtmvet:ignore <reason>";
// the reason is mandatory. -fix rewrites sortable map ranges to iterate
// detsort.Keys. -json emits the findings as a JSON array of objects with
// the stable field set {pass, kind, file, line, col, message}. -tags
// adds build tags to file selection; _test.go files are never analyzed
// (the dynamic suite owns them).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rtmlab/internal/analysis"
)

func main() {
	os.Exit(run())
}

// writeJSON emits findings as an indented JSON array. The field set
// {pass, kind, file, line, col, message} is a stable schema that CI
// annotation tooling depends on; changing it is a breaking change
// (see the golden test).
func writeJSON(w io.Writer, all []analysis.Diagnostic) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if all == nil {
		all = []analysis.Diagnostic{}
	}
	return enc.Encode(all)
}

func run() int {
	var (
		jsonOut = flag.Bool("json", false, "emit diagnostics as JSON")
		fix     = flag.Bool("fix", false, "apply suggested fixes (sortable map ranges)")
		passes  = flag.String("passes", "", "comma-separated passes to run (default: all)")
		list    = flag.Bool("list", false, "list available passes and exit")
		tags    = flag.String("tags", "", "comma-separated build tags honored during file selection")
	)
	flag.Parse()

	if *list {
		for _, p := range analysis.Passes() {
			fmt.Printf("%-10s %s\n", p.Name, p.Doc)
		}
		return 0
	}

	opt := analysis.Options{}
	if *passes != "" {
		opt.Passes = strings.Split(*passes, ",")
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtmvet: %v\n", err)
		return 2
	}
	if *tags != "" {
		loader.SetBuildTags(strings.Split(*tags, ","))
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtmvet: %v\n", err)
		return 2
	}

	var all []analysis.Diagnostic
	for _, dir := range dirs {
		unit, err := loader.LoadUnit(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtmvet: %v\n", err)
			return 2
		}
		diags, err := analysis.RunUnit(unit, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtmvet: %v\n", err)
			return 2
		}
		if *fix && len(diags) > 0 {
			fixed, remaining, err := analysis.ApplyFixes(unit, diags)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rtmvet: %v\n", err)
				return 2
			}
			for _, f := range fixed {
				fmt.Fprintf(os.Stderr, "rtmvet: fixed %s\n", f)
			}
			diags = remaining
		}
		all = append(all, diags...)
	}

	if *jsonOut {
		if err := writeJSON(os.Stdout, all); err != nil {
			fmt.Fprintf(os.Stderr, "rtmvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range all {
			fmt.Printf("%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Pass, d.Message)
		}
	}
	if len(all) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "rtmvet: %d finding(s)\n", len(all))
		}
		return 1
	}
	return 0
}
