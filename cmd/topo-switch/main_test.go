package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mlmd/internal/core"
	"mlmd/internal/units"
)

// smallArgs is the golden-file configuration: the whole Fig. 3 chain on an
// 8x8x2 lattice holding one skyrmion, small enough for CI.
var smallArgs = []string{"-lat", "8", "-sky", "1", "-steps", "25"}

func buildTopoSwitch(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "topo-switch")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

func runTopoSwitch(t *testing.T, exe string, args ...string) string {
	t.Helper()
	out, err := exec.Command(exe, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("topo-switch %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestSummaryGolden: the plain run's report is a committed golden file, so
// any change to the pipeline's numbers must be deliberate.
func TestSummaryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	got := runTopoSwitch(t, buildTopoSwitch(t), smallArgs...)
	want, err := os.ReadFile(filepath.Join("testdata", "summary_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("summary drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTraceEndsOnPlainState: a -trace run takes the plain run's steps, so
// its last row lands on the final response step and it ends with the plain
// run's report, final state included.
func TestTraceEndsOnPlainState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	exe := buildTopoSwitch(t)
	plain := runTopoSwitch(t, exe, smallArgs...)
	traced := runTopoSwitch(t, exe, append(append([]string{}, smallArgs...), "-trace")...)
	report := plain[strings.Index(plain, "\n")+1:]
	if !strings.HasSuffix(traced, "\n"+report) {
		t.Errorf("traced run does not end with the plain report\n--- traced ---\n%s\n--- plain ---\n%s", traced, plain)
	}
	// The last row is response step 25, after the 10-step hold before the
	// pulse, and shows the final mean Pz of the report.
	var last []string
	for _, l := range strings.Split(traced, "\n") {
		if f := strings.Fields(l); len(f) == 7 && f[0] != "t" {
			last = f
		}
	}
	wantT := fmt.Sprintf("%.1f", units.Femtoseconds(35*core.DefaultPipelineConfig().DtMD))
	if last == nil || last[0] != wantT {
		t.Fatalf("last trace row %q, want t = %s fs\n%s", last, wantT, traced)
	}
	if pz := strings.TrimPrefix(last[2], "+"); !strings.Contains(report, "-> "+pz+"\n") {
		t.Errorf("last trace row's mean Pz %s is not the report's final Pz\n%s", last[2], traced)
	}
}
