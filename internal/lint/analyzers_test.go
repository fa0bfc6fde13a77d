package lint

import (
	"strings"
	"testing"
)

func TestNoAllocFixture(t *testing.T)   { checkFixture(t, NoAlloc, "noallocfix") }
func TestDetRangeFixture(t *testing.T)  { checkFixture(t, DetRange, "detrangefix") }
func TestPoolOnlyFixture(t *testing.T)  { checkFixture(t, PoolOnly, "poolonlyfix") }
func TestAscendSumFixture(t *testing.T) { checkFixture(t, AscendSum, "ascendsumfix") }
func TestWireSafeFixture(t *testing.T)  { checkFixture(t, WireSafe, "wire") }
func TestRowExpFixture(t *testing.T)    { checkFixture(t, RowExp, "rowexpfix") }

// TestPoolOnlyClusterWhitelist checks the analyzer-level whitelist: the
// reader/heartbeat/accept goroutines of a package named cluster pass, any
// other goroutine there is flagged.
func TestPoolOnlyClusterWhitelist(t *testing.T) {
	checkFixture(t, PoolOnly, "cluster")
}

// TestAllowGrammar checks the suppression contract end to end: a reasoned
// allow silences its finding, a reason-less or unknown-analyzer allow is
// itself reported and suppresses nothing.
func TestAllowGrammar(t *testing.T) {
	pkg := fixture(t, "allowfix")
	fs := Run([]*Package{pkg}, []*Analyzer{PoolOnly})

	if f := findingAt(fs, "poolonly", "allowfix.go", 10); f != nil {
		t.Errorf("reasoned suppression did not silence the finding:\n%s", findingsString(fs))
	}
	if f := findingAt(fs, "lint", "allowfix.go", 15); f == nil || !strings.Contains(f.Message, "missing its mandatory reason") {
		t.Errorf("missing-reason allow not reported:\n%s", findingsString(fs))
	}
	if f := findingAt(fs, "poolonly", "allowfix.go", 16); f == nil {
		t.Errorf("malformed allow must not suppress; want poolonly finding on line 16:\n%s", findingsString(fs))
	}
	if f := findingAt(fs, "lint", "allowfix.go", 21); f == nil || !strings.Contains(f.Message, "unknown analyzer") {
		t.Errorf("unknown-analyzer allow not reported:\n%s", findingsString(fs))
	}
	if f := findingAt(fs, "poolonly", "allowfix.go", 22); f == nil {
		t.Errorf("unknown-analyzer allow must not suppress; want poolonly finding on line 22:\n%s", findingsString(fs))
	}
}

// TestAnalyzersHaveDocs pins the suite's shape: six named, documented
// analyzers.
func TestAnalyzersHaveDocs(t *testing.T) {
	as := Analyzers()
	if len(as) != 6 {
		t.Fatalf("analyzer suite has %d analyzers, want 6", len(as))
	}
	want := map[string]bool{"noalloc": true, "detrange": true, "poolonly": true, "ascendsum": true, "wiresafe": true, "rowexp": true}
	for _, a := range as {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run function", a.Name)
		}
	}
}

// TestLoadErrors covers the loader's failure modes.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(".", "./does/not/exist"); err == nil {
		t.Error("Load of a nonexistent pattern did not fail")
	}
}

// TestFindingString pins the go-vet-style rendering.
func TestFindingString(t *testing.T) {
	pkg := fixture(t, "poolonlyfix")
	fs := Run([]*Package{pkg}, []*Analyzer{PoolOnly})
	if len(fs) == 0 {
		t.Fatal("no findings on poolonlyfix")
	}
	s := fs[0].String()
	if !strings.Contains(s, "poolonlyfix.go:") || !strings.Contains(s, ": poolonly: ") {
		t.Errorf("finding rendered %q, want file:line:col: analyzer: message", s)
	}
}
