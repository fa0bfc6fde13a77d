// Command mlmdlint is the repo's static-enforcement driver: it loads the
// named packages (default ./...) and runs the internal/lint analyzer suite
// over them — noalloc, detrange, poolonly, ascendsum, wiresafe, rowexp — printing
// findings go-vet style (file:line:col: analyzer: message) and exiting
// nonzero when any survive suppression. `make lint` runs it over the whole
// tree as part of `make check`; docs/lint.md documents the //mlmd:hotpath
// annotation and //lint:allow suppression grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mlmd/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mlmdlint", flag.ContinueOnError)
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mlmdlint [-run a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "mlmdlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	patterns := fs.Args()
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlmdlint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlmdlint: %v\n", err)
		return 2
	}
	findings := lint.Run(pkgs, analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mlmdlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
