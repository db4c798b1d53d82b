// Command ftlint is the multichecker for this repository's determinism,
// numeric-safety and allocation analyzers (internal/lint). It runs over go
// list patterns resolved in the current module:
//
//	ftlint ./...
//	ftlint -only nondeterm,seedplumbing ./internal/sim/...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load failure.
// Sanctioned exceptions are annotated in source with
// `//ftlint:ignore <analyzer> <reason>`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"fattree/internal/lint"
)

// jsonDiagnostic is the machine-readable shape of one finding, emitted by
// -json as a sorted array (empty array, not null, on a clean run) so CI can
// archive and diff lint results across commits.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ftlint", flag.ContinueOnError)
	var (
		only     = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		list     = fs.Bool("list", false, "list the analyzers and exit")
		jsonMode = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, "usage: ftlint [-only a,b] [-json] [-list] [packages]\n\n"+
			"Runs the fat-tree determinism analyzers over the packages\n"+
			"(go list patterns, default ./...).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "ftlint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(cwd, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
		return 2
	}
	if *jsonMode {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ftlint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}
