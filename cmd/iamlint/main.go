// Command iamlint runs the module's invariant checkers over its own source.
//
// Usage:
//
//	iamlint [flags] [packages...]
//
// Package patterns follow a subset of the go tool's syntax: "./..." (the
// default), "<dir>/...", or plain directory / import paths. The exit code is
// 0 when the tree is clean at the selected severity, 1 when diagnostics were
// reported, and 2 for an unknown check, a pattern that matches no package, or
// source that could not be loaded.
//
// Flags:
//
//	-severity error|warn  minimum severity to report (default error;
//	                      make lint-warn runs -severity=warn)
//	-json                 emit diagnostics as a JSON array on stdout
//	-checks a,b           run a subset of checks
//	-list                 list available checks and exit
//
// Diagnostics are suppressed per line with
//
//	//lint:ignore <check>[,<check>] <reason>
//
// on the offending line or above the statement it covers; see DESIGN.md
// ("Enforced invariants") for each of the nine checks' rationale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"iam/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	severity := flag.String("severity", "error", "minimum severity to report: error or warn")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			sev := a.DefaultSeverity
			if sev == "" {
				sev = lint.SeverityError
			}
			fmt.Printf("%-12s [%s] %s\n", a.Name, sev, a.Doc)
		}
		return 0
	}
	var minSev lint.Severity
	switch *severity {
	case "error":
		minSev = lint.SeverityError
	case "warn":
		minSev = lint.SeverityWarn
	default:
		fmt.Fprintf(os.Stderr, "iamlint: -severity must be error or warn, got %q\n", *severity)
		return 2
	}
	if *checks != "" {
		var sel []*lint.Analyzer
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			a := lint.AnalyzerByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "iamlint: unknown check %q (try -list)\n", name)
				return 2
			}
			sel = append(sel, a)
		}
		analyzers = sel
	}

	diags, err := lint.Run(".", flag.Args(), analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iamlint: %v\n", err)
		return 2
	}

	diags = lint.FilterSeverity(diags, minSev)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "iamlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	// Only error-severity findings fail the run; warns are informational.
	if lint.MaxSeverity(diags) == lint.SeverityError {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "iamlint: %d issue(s) reported\n", len(diags))
		}
		return 1
	}
	return 0
}
