// Command reach is the link-time census of `make reach`. It builds, inlining
// off, every main package under cmd/ and examples/, the gated benchmark and
// the paper roots' test binaries (bench_test.go, internal/bench). It fails on
// a function body in internal/'s non-test files for this GOOS/GOARCH that no
// text symbol names and cmd/reach/allowlist.txt does not list, and on a
// listed one that is linked or gone; ARCHITECTURE.md ("Unlinked but kept")
// defines the allowlist's reasons. Run it from the module root, without flags.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const allowFile = "cmd/reach/allowlist.txt"

var (
	reason   = regexp.MustCompile(`^(reference|invariant|harness|input-check|item-[0-9]+)$`)
	typeArgs = regexp.MustCompile(`\[[^][]*\]`)
	// A text symbol of the module, after the "binary:\t" of a listing of
	// several binaries.
	textSymbol = regexp.MustCompile(`(?m)^(?:[^\t\n]*:\t)? *[0-9a-f]+ [Tt] mlmd/(.*)$`)
)

// fn is one function body, keyed `<package dir>.<Func or Type.Method>`.
type fn struct {
	key, pos string
	lines    int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	bin, err := os.MkdirTemp("", "reach")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bin)
	for _, args := range [][]string{
		{"build", "-gcflags=all=-l", "-o", bin + "/", "./cmd/...", "./examples/..."},
		{"build", "-C", "benchmark", "-gcflags=all=-l", "-o", bin + "/", "."},
		{"test", "-gcflags=all=-l", "-c", "-o", bin + "/", ".", "./internal/bench"},
	} {
		if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, msg)
		}
	}
	bins, _ := filepath.Glob(filepath.Join(bin, "*")) // the pattern is well formed
	nm, err := exec.Command("go", append([]string{"tool", "nm"}, bins...)...).Output()
	if err != nil {
		return fmt.Errorf("go tool nm: %v", err)
	}
	linked := linkedFuncs(string(nm))
	fns, err := decls(&build.Default, ".")
	if err != nil {
		return err
	}
	allow, err := readAllowlist(allowFile)
	if err != nil {
		return err
	}
	problems, n, lines := census(fns, linked, allow)
	if len(problems) > 0 {
		return fmt.Errorf("delete each unlinked function or give it an allowlist line:\n%s", strings.Join(problems, "\n"))
	}
	fmt.Printf("reach: %d binaries; %d of %d functions (%d lines) unlinked, all allowlisted\n", len(bins), n, len(fns), lines)
	return nil
}

// linkedFuncs returns the keys of the module's text symbols in a `go tool nm`
// listing: each prefix ending at a dot of pkg.F.func1, pkg.T.M or pkg.(*T).M-fm
// with type arguments dropped (no package directory holds a dot).
func linkedFuncs(nm string) map[string]bool {
	linked := map[string]bool{}
	unwrap := strings.NewReplacer("(*", "", ")", "", "-fm", "")
	for _, m := range textSymbol.FindAllStringSubmatch(nm, -1) {
		name := unwrap.Replace(dropTypeArgs(m[1])) + "."
		for i, r := range name {
			if r == '.' {
				linked[name[:i]] = true
			}
		}
	}
	return linked
}

// dropTypeArgs removes every bracketed type-argument list, innermost first.
func dropTypeArgs(s string) string {
	for {
		t := typeArgs.ReplaceAllString(s, "")
		if t == s {
			return s
		}
		s = t
	}
}

// decls returns every function with a body in the non-test Go files under
// root/internal that ctx builds, skipping testdata directories.
func decls(ctx *build.Context, root string) ([]fn, error) {
	var fns []fn
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return err
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := ctx.MatchFile(dir, name); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(root, dir) // dir is below root
		pkg = filepath.ToSlash(pkg)
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil || d.Name.Name == "_" {
				continue
			}
			key := pkg + "." + d.Name.Name
			if d.Recv != nil { // T.M whether the receiver is T, *T or *T[P]
				recv := strings.TrimPrefix(dropTypeArgs(types.ExprString(d.Recv.List[0].Type)), "*")
				key = pkg + "." + recv + "." + d.Name.Name
			}
			start, end := fset.Position(d.Pos()), fset.Position(d.End())
			fns = append(fns, fn{key, fmt.Sprintf("%s:%d", path, start.Line), end.Line - start.Line + 1})
		}
		return nil
	})
	return fns, err
}

// readAllowlist parses `<key> <reason>` lines, skipping blank lines and #
// comments.
func readAllowlist(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 || !reason.MatchString(f[1]) || allow[f[0]] != "" {
			return nil, fmt.Errorf("%s:%d: want one `<key> <reason>` line per key, the reason one of reference, invariant, harness, input-check, item-N", path, i+1)
		}
		allow[f[0]] = f[1]
	}
	return allow, nil
}

// census returns, sorted, one line per problem — an unlinked function with no
// allowlist line, or an allowlist line whose function is linked or gone — and
// the count and lines of the allowlisted unlinked functions.
func census(fns []fn, linked map[string]bool, allow map[string]string) (problems []string, n, lines int) {
	unlinked := map[string]bool{}
	for _, f := range fns {
		switch {
		case linked[f.key]:
		case allow[f.key] == "":
			problems = append(problems, fmt.Sprintf("%s: %s (%d lines) is linked into no binary", f.pos, f.key, f.lines))
		default:
			unlinked[f.key] = true
			n, lines = n+1, lines+f.lines
		}
	}
	for key := range allow {
		if !unlinked[key] {
			problems = append(problems, fmt.Sprintf("%s: %s is linked or gone", allowFile, key))
		}
	}
	sort.Strings(problems)
	return problems, n, lines
}
