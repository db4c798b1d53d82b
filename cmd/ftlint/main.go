// Command ftlint is the multichecker for this repository's determinism and
// numeric-safety analyzers (internal/lint). It runs in two modes:
//
// Standalone, over go list patterns resolved in the current module:
//
//	ftlint ./...
//	ftlint -only nondeterm,seedplumbing ./internal/sim/...
//
// As a vet tool, driven by the go command (which adds caching and testdata
// handling):
//
//	go vet -vettool=$(which ftlint) ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load failure.
// Sanctioned exceptions are annotated in source with
// `//ftlint:ignore <analyzer> <reason>`.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
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

// printVersion answers the go command's `-V=full` probe. The output line
// must end in a buildID= token hashing the executable: the go command folds
// it into its vet cache key, so analyzer changes invalidate cached results.
func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
		return 1
	}
	fmt.Printf("ftlint version devel buildID=%02x\n", h.Sum(nil))
	return 0
}

func run(args []string) int {
	// The go command probes its vet tool before use: `ftlint -V=full`
	// must print a version line, and the single remaining argument of a
	// real invocation is the package's vet.cfg file.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		return printVersion()
	}
	if len(args) == 1 && args[0] == "-flags" {
		// The go command asks which analyzer flags the tool accepts, as a
		// JSON array; ftlint always runs its full suite.
		fmt.Println("[]")
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		n, err := lint.RunVetTool(args[0], lint.All())
		if err != nil {
			// Load failure, matching the standalone convention: exit 2.
			fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
			return 2
		}
		if n > 0 {
			// Diagnostics reported: exit 1, like standalone mode.
			return 1
		}
		return 0
	}

	fs := flag.NewFlagSet("ftlint", flag.ContinueOnError)
	var (
		only     = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		list     = fs.Bool("list", false, "list the analyzers and exit")
		jsonMode = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, "usage: ftlint [-only a,b] [-json] [-list] [packages]\n\n"+
			"Runs the fat-tree determinism analyzers over the packages\n"+
			"(go list patterns, default ./...). Also usable as\n"+
			"`go vet -vettool=$(which ftlint) ./...`.\n\n")
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
