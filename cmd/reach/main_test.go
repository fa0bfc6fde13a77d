package main

import (
	"go/build"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fixture parses testdata/internal for GOARCH goarch and links the symbols of
// testdata/nm.txt: no build, no go tool.
func fixture(t *testing.T, goarch string) ([]fn, map[string]bool) {
	t.Helper()
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH = "linux", goarch
	fns, err := decls(&ctx, "testdata")
	if err != nil {
		t.Fatal(err)
	}
	nm, err := os.ReadFile("testdata/nm.txt")
	if err != nil {
		t.Fatal(err)
	}
	return fns, linkedFuncs(string(nm))
}

func keys(fns []fn) []string {
	var out []string
	for _, f := range fns {
		out = append(out, f.key)
	}
	sort.Strings(out)
	return out
}

// TestDecls: methods are keyed by their bare receiver type whatever its
// pointer or type parameters; bodyless (assembly) and blank functions,
// _test.go files, testdata directories and files this GOARCH does not build
// are skipped.
func TestDecls(t *testing.T) {
	fns, _ := fixture(t, "amd64")
	want := []string{
		"internal/p.Allowed", "internal/p.Box.Get", "internal/p.Dead", "internal/p.Map",
		"internal/p.Outer", "internal/p.Pair.Key", "internal/p.T.Bound", "internal/p.T.DeadMethod",
		"internal/p.T.Ptr", "internal/p.T.Val", "internal/p.init", "internal/p/sub.S",
	}
	if got := keys(fns); !reflect.DeepEqual(got, want) {
		t.Errorf("amd64 decls:\n got %v\nwant %v", got, want)
	}
	for _, f := range fns {
		if f.key == "internal/p.Dead" && (f.lines != 3 || !strings.HasSuffix(f.pos, filepath.FromSlash("p/p.go:33"))) {
			t.Errorf("Dead at %s, %d lines; want p/p.go:33, 3 lines", f.pos, f.lines)
		}
	}
	fns, _ = fixture(t, "arm64")
	if got := keys(fns); len(got) != len(want)+1 || !strings.Contains(strings.Join(got, " "), "internal/p.kernelGo") {
		t.Errorf("arm64 decls %v: want the amd64 set plus the _noasm.go kernelGo", got)
	}
}

// TestLinkedFuncs: pointer and value receivers, generic instantiations (type
// arguments with spaces and slashes), closures and method values all mark
// their function, in single- and several-binary listings alike; data symbols
// and other modules' symbols mark nothing.
func TestLinkedFuncs(t *testing.T) {
	fns, linked := fixture(t, "amd64")
	var unlinked []string
	for _, f := range fns {
		if !linked[f.key] {
			unlinked = append(unlinked, f.key)
		}
	}
	sort.Strings(unlinked)
	want := []string{"internal/p.Allowed", "internal/p.Dead", "internal/p.T.DeadMethod"}
	if !reflect.DeepEqual(unlinked, want) {
		t.Errorf("unlinked %v, want %v", unlinked, want)
	}
}

// TestCensus: an unlinked function needs an allowlist line, and a line whose
// function is linked or gone is a problem too.
func TestCensus(t *testing.T) {
	fns, linked := fixture(t, "amd64")
	allow := map[string]string{
		"internal/p.Allowed":      "harness",
		"internal/p.T.DeadMethod": "item-12",
		"internal/p.Outer":        "reference",
		"internal/p.Gone":         "invariant",
	}
	problems, n, lines := census(fns, linked, allow)
	if n != 2 || lines != 2 {
		t.Errorf("allowlisted %d functions, %d lines; want 2, 2", n, lines)
	}
	// Sorted: the allowlist's lines come before testdata's.
	want := []string{"internal/p.Gone is linked or gone", "internal/p.Outer is linked or gone", "internal/p.Dead (3 lines) is linked into no binary"}
	if len(problems) != len(want) {
		t.Fatalf("problems %q, want %d", problems, len(want))
	}
	for i, w := range want {
		if !strings.HasSuffix(problems[i], w) {
			t.Errorf("problem %d = %q, want suffix %q", i, problems[i], w)
		}
	}
}

func TestReadAllowlist(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		text string
		ok   bool
	}{
		{"# comment\n\ninternal/p.A reference\ninternal/p.T.B item-13\n", true},
		{"internal/p.A input-check\ninternal/p.B invariant\ninternal/p.C harness\n", true},
		{"internal/p.A\n", false},
		{"internal/p.A unused\n", false},
		{"internal/p.A item-\n", false},
		{"internal/p.A reference extra\n", false},
		{"internal/p.A reference\ninternal/p.A harness\n", false},
	} {
		path := filepath.Join(dir, "allow.txt")
		if err := os.WriteFile(path, []byte(c.text), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readAllowlist(path); (err == nil) != c.ok {
			t.Errorf("%q: err = %v, want ok=%v", c.text, err, c.ok)
		}
	}
}
