package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smallArgs is the golden-file configuration: a full DC-MESH + XS-NNQMD
// pipeline small enough for CI.
var smallArgs = []string{"-mesh", "8", "-domains", "2", "-norb", "2", "-nqd", "10", "-mdsteps", "2", "-cells", "8"}

func buildMLMD(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "mlmd")
	cmd := exec.Command("go", "build", "-o", exe, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

func runMLMD(t *testing.T, exe string, args ...string) string {
	t.Helper()
	out, err := exec.Command(exe, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("mlmd %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// stripShardNote drops the sharding announcement, the timing-dependent
// balance summary and the pair-list events (which an unsharded run does not
// have) so sharded and unsharded outputs are comparable line-for-line.
func stripShardNote(s string) string {
	lines := strings.Split(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "(lattice stage sharded") ||
			strings.HasPrefix(l, "(field stage sharded") ||
			strings.HasPrefix(l, "(balance:") ||
			strings.HasPrefix(l, "(pair lists:") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestFlagMisuseFailsFast: flag combinations that older versions silently
// ignored or overrode are now hard errors — -balance without a
// decomposition, -ranks combined with -grid, and a -procs count that
// contradicts the -grid shape.
func TestFlagMisuseFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	exe := buildMLMD(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-balance"}, "-balance requires a decomposition"},
		{[]string{"-balance", "-mdsteps", "1"}, "-balance requires a decomposition"},
		{[]string{"-ranks", "2", "-grid", "2x1x1"}, "both name a decomposition"},
		{[]string{"-procs", "3", "-grid", "2x1x1"}, "does not match"},
		{[]string{"-procs", "3", "-ranks", "2"}, "does not match"},
		{[]string{"-ranks", "-1"}, "must be >= 0"},
		{[]string{"-grid", "2x2"}, "not of the form"},
		{[]string{"-max-restarts", "1"}, "-max-restarts requires -procs"},
		{[]string{"-max-restarts", "1", "-procs", "2"}, "-max-restarts requires -checkpoint-every"},
		{[]string{"-grid", "auto"}, "-grid auto needs a rank count"},
	}
	for _, tc := range cases {
		out, err := exec.Command(exe, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("%v: exited 0, want a fail-fast error", tc.args)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: error %q does not mention %q", tc.args, out, tc.want)
		}
	}
}

// TestFieldDemoGoldens (ISSUE 9): the -fdtd and -tddft field-demo
// summaries are committed golden files — every line is computed serially
// on rank 0 from the gathered global fields, so any numeric drift is a
// deliberate physics change, never a decomposition artifact.
func TestFieldDemoGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	exe := buildMLMD(t)
	for _, demo := range []string{"fdtd", "tddft"} {
		got := runMLMD(t, exe, "-"+demo)
		want, err := os.ReadFile(filepath.Join("testdata", "summary_"+demo+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("-%s summary drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", demo, got, want)
		}
	}
}

// TestFieldDemoShardedMatchesGolden (ISSUE 9): the field demos reproduce
// their golden summary on every decomposition — in-process slab and 3-D
// grids, and OS-process ranks over the Unix-socket and TCP transports.
func TestFieldDemoShardedMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	exe := buildMLMD(t)
	for _, demo := range []string{"fdtd", "tddft"} {
		want, err := os.ReadFile(filepath.Join("testdata", "summary_"+demo+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		shards := [][]string{
			{"-ranks", "2"},
			{"-grid", "2x2x1"},
		}
		if haveUnixSockets(t) {
			shards = append(shards, []string{"-procs", "2"})
		}
		if haveLoopbackTCP(t) {
			shards = append(shards, []string{"-procs", "2", "-transport", "tcp"})
		}
		for _, shard := range shards {
			got := runMLMD(t, exe, append([]string{"-" + demo}, shard...)...)
			if stripShardNote(got) != string(want) {
				t.Errorf("-%s %v output differs from golden summary\n--- sharded ---\n%s\n--- golden ---\n%s", demo, shard, got, want)
			}
		}
	}
}

// TestFieldDemoFlagMisuse (ISSUE 9): particle-stage flags on a field demo
// fail fast with an error naming the conflict — silently ignoring them
// would fake a checkpointed or balanced field run.
func TestFieldDemoFlagMisuse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	exe := buildMLMD(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-fdtd", "-tddft"}, "pick one field demo"},
		{[]string{"-fdtd", "-balance"}, "-balance rebalances the particle lattice stage"},
		{[]string{"-fdtd", "-grid", "auto"}, "explicit PxxPyxPz"},
		{[]string{"-tddft", "-checkpoint-every", "10"}, "-checkpoint-every applies to the particle lattice stage"},
		{[]string{"-fdtd", "-resume", "x.ckpt"}, "-resume applies to the particle lattice stage"},
		{[]string{"-fdtd", "-max-restarts", "1"}, "-max-restarts applies to the particle lattice stage"},
		{[]string{"-tddft", "-hosts", "h:1", "-hostrank", "0"}, "run the -tddft field demo with -procs"},
		{[]string{"-fdtd", "-procs", "3", "-grid", "2x1x1"}, "does not match"},
	}
	for _, tc := range cases {
		out, err := exec.Command(exe, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("%v: exited 0, want a fail-fast error", tc.args)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: error %q does not mention %q", tc.args, out, tc.want)
		}
	}
}

// haveUnixSockets reports whether the platform supports the multi-process
// rank transport.
func haveUnixSockets(t *testing.T) bool {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "probe.sock"))
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// TestMultiProcessSummaryMatchesGolden is the `make check` multi-process
// smoke test: a short mlmd -procs 2 run — one OS process per rank over the
// Unix-socket transport — reproduces the committed golden summary exactly
// (modulo the sharding announcement), like every in-process decomposition.
func TestMultiProcessSummaryMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	if !haveUnixSockets(t) {
		t.Skip("no Unix-domain socket support on this platform")
	}
	exe := buildMLMD(t)
	want, err := os.ReadFile(filepath.Join("testdata", "summary_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range [][]string{
		{"-procs", "2"},
		{"-procs", "2", "-balance"},
	} {
		got := runMLMD(t, exe, append(append([]string{}, smallArgs...), shard...)...)
		if stripShardNote(got) != string(want) {
			t.Errorf("%v output differs from golden summary\n--- multi-process ---\n%s\n--- golden ---\n%s", shard, got, want)
		}
	}
}

// TestSummaryGolden: the end-to-end summary trace is a committed golden
// file — any change to the physics pipeline's numbers must be deliberate.
func TestSummaryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	exe := buildMLMD(t)
	got := runMLMD(t, exe, smallArgs...)
	want, err := os.ReadFile(filepath.Join("testdata", "summary_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("summary output drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestShardedSummaryMatches: running the lattice stage sharded — slab
// (-ranks 2/4), 3-D domain grid (-grid 2x2x1/4x2x1), or grid with dynamic
// boundary balancing (-balance: cut planes move from measured step times) —
// produces the identical summary: the decomposed blended effective
// Hamiltonian is bitwise-equivalent through the whole module for every
// decomposition, static or moving.
func TestShardedSummaryMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	exe := buildMLMD(t)
	ref := runMLMD(t, exe, smallArgs...)
	for _, shard := range [][]string{
		{"-ranks", "2"},
		{"-ranks", "4"},
		{"-grid", "2x2x1"},
		{"-grid", "4x2x1"},
		{"-grid", "2x2x1", "-balance"},
		{"-ranks", "4", "-balance"},
	} {
		got := runMLMD(t, exe, append(append([]string{}, smallArgs...), shard...)...)
		if stripShardNote(got) != ref {
			t.Errorf("%v output differs from unsharded run\n--- sharded ---\n%s\n--- unsharded ---\n%s", shard, got, ref)
		}
	}
}

// haveLoopbackTCP reports whether the platform supports loopback TCP (for
// the -transport tcp multi-process path).
func haveLoopbackTCP(t *testing.T) bool {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// TestTCPTransportSummaryMatchesGolden (ISSUE 6): the multi-process run
// over loopback TCP — rendezvous-directory port exchange instead of Unix
// sockets — reproduces the committed golden summary exactly, like every
// other transport and decomposition.
func TestTCPTransportSummaryMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	if !haveLoopbackTCP(t) {
		t.Skip("no loopback TCP support on this platform")
	}
	exe := buildMLMD(t)
	want, err := os.ReadFile(filepath.Join("testdata", "summary_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range [][]string{
		{"-procs", "2", "-transport", "tcp"},
		{"-procs", "2", "-transport", "tcp", "-peer-timeout", "5s"},
	} {
		got := runMLMD(t, exe, append(append([]string{}, smallArgs...), shard...)...)
		if stripShardNote(got) != string(want) {
			t.Errorf("%v output differs from golden summary\n--- tcp ---\n%s\n--- golden ---\n%s", shard, got, want)
		}
	}
}

// TestCheckpointResumeGolden (ISSUE 6): checkpointing is invisible to the
// summary, and a run resumed from the last checkpoint — unsharded, on a
// different in-process grid, or across OS processes — reproduces the
// uninterrupted run's remaining summary lines bitwise.
func TestCheckpointResumeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	exe := buildMLMD(t)
	ref := runMLMD(t, exe, smallArgs...)
	// The uninterrupted tail this run must reproduce: the final lattice
	// summary line onward (the last checkpoint lands at step 180 of 200).
	cut := strings.LastIndex(ref, "t = ")
	if cut < 0 {
		t.Fatalf("reference output has no lattice summary lines:\n%s", ref)
	}
	tail := ref[cut:]

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	withCk := runMLMD(t, exe, append(append([]string{}, smallArgs...),
		"-checkpoint-every", "60", "-checkpoint", ckpt)...)
	if withCk != ref {
		t.Errorf("checkpointing perturbed the summary\n--- with ---\n%s\n--- without ---\n%s", withCk, ref)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	resumes := [][]string{
		{"-resume", ckpt},
		{"-resume", ckpt, "-grid", "2x2x1"},
		{"-resume", ckpt, "-ranks", "4", "-balance"},
	}
	if haveUnixSockets(t) {
		resumes = append(resumes, []string{"-resume", ckpt, "-procs", "2"})
	}
	if haveLoopbackTCP(t) {
		resumes = append(resumes, []string{"-resume", ckpt, "-procs", "2", "-transport", "tcp"})
	}
	for _, rargs := range resumes {
		got := stripShardNote(runMLMD(t, exe, append(append([]string{}, smallArgs...), rargs...)...))
		if !strings.Contains(got, "resuming") {
			t.Errorf("%v did not announce the resume:\n%s", rargs, got)
		}
		if !strings.HasSuffix(got, tail) {
			t.Errorf("%v resumed tail differs from the uninterrupted run\n--- resumed ---\n%s\n--- want tail ---\n%s", rargs, got, tail)
		}
	}

	// Fail fast on a checkpoint that does not match the requested lattice.
	out, err := exec.Command(exe, append(append([]string{}, smallArgs...),
		"-resume", ckpt, "-cells", "10")...).CombinedOutput()
	if err == nil {
		t.Error("resume with a mismatched -cells exited 0")
	} else if !strings.Contains(string(out), "checkpoint holds") {
		t.Errorf("mismatched resume error %q does not describe the shape conflict", out)
	}
}

// TestLauncherCleansUpOnWorkerFailure (ISSUE 6 satellite): when one -procs
// worker fails at start-up, the launcher must exit nonzero promptly (not
// after the full dial timeout), kill and reap the surviving workers, and
// remove the rendezvous directory.
func TestLauncherCleansUpOnWorkerFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	if !haveUnixSockets(t) {
		t.Skip("no Unix-domain socket support on this platform")
	}
	exe := buildMLMD(t)
	tmp := t.TempDir() // private TMPDIR: rendezvous-dir leaks are visible
	cmd := exec.Command(exe, append(append([]string{}, smallArgs...), "-procs", "2")...)
	cmd.Env = append(os.Environ(),
		"TMPDIR="+tmp,
		"MLMD_TEST_FAIL_RANK=1",
		"MLMD_DIAL_TIMEOUT=2s",
	)
	start := time.Now()
	out, err := cmd.CombinedOutput()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("launcher exited 0 with a failing worker:\n%s", out)
	}
	if !strings.Contains(string(out), "deliberate start-up failure") {
		t.Errorf("launcher output %q does not surface the worker failure", out)
	}
	if elapsed > 60*time.Second {
		t.Errorf("launcher took %v to fail; survivors were not killed promptly", elapsed)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "mlmd-rdv") {
			t.Errorf("rendezvous directory %s leaked after the failed launch", e.Name())
		}
	}
}

// TestAutoResumeRecoversFromKilledWorker (ISSUE 8 tentpole, end to end):
// SIGKILL one of three -max-restarts workers mid-run. The two survivors
// must shrink, auto-select their grid, and resume from the newest
// checkpoint at the next mesh generation by themselves, and the launcher
// must exit zero with a summary tail bitwise identical to an uninterrupted
// run.
func TestAutoResumeRecoversFromKilledWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	if !haveUnixSockets(t) {
		t.Skip("no Unix-domain socket support on this platform")
	}
	exe := buildMLMD(t)
	ref := runMLMD(t, exe, smallArgs...)
	cut := strings.LastIndex(ref, "t = ")
	if cut < 0 {
		t.Fatalf("reference output has no lattice summary lines:\n%s", ref)
	}
	tail := ref[cut:]

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cmd := exec.Command(exe, append(append([]string{}, smallArgs...),
		"-procs", "3", "-max-restarts", "3",
		"-checkpoint-every", "60", "-checkpoint", ckpt)...)
	cmd.Env = append(os.Environ(),
		"MLMD_TEST_KILL_RANK=2",
		"MLMD_TEST_KILL_STEP=120",
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("auto-resume run failed: %v\n%s", err, out)
	}
	got := string(out)
	if !strings.Contains(got, "restart 1/") {
		t.Errorf("launcher did not announce the automatic restart:\n%s", got)
	}
	if !strings.Contains(got, "resuming 2 ranks") {
		t.Errorf("launcher did not shrink to the 2 survivors:\n%s", got)
	}
	if !strings.Contains(got, "generation 1") {
		t.Errorf("launcher did not advance the mesh generation:\n%s", got)
	}
	if !strings.HasSuffix(stripShardNote(got), tail) {
		t.Errorf("recovered tail differs from the uninterrupted run\n--- recovered ---\n%s\n--- want tail ---\n%s", got, tail)
	}
}

// TestAutoResumeHonorsRestartBudget (ISSUE 8 satellite): a rank that
// crashes every generation must not restart the run forever — the
// survivors spend exactly -max-restarts attempts, name the exhausted
// budget, and the launch exits nonzero.
func TestAutoResumeHonorsRestartBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	if !haveUnixSockets(t) {
		t.Skip("no Unix-domain socket support on this platform")
	}
	exe := buildMLMD(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cmd := exec.Command(exe, append(append([]string{}, smallArgs...),
		"-procs", "4", "-max-restarts", "2",
		"-checkpoint-every", "60", "-checkpoint", ckpt)...)
	cmd.Env = append(os.Environ(),
		"MLMD_TEST_KILL_RANK=0",
		"MLMD_TEST_KILL_STEP=60",
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("crash-looping run exited 0:\n%s", out)
	}
	got := string(out)
	for _, want := range []string{"restart 1/2", "restart 2/2", "restart budget 2 exhausted"} {
		if !strings.Contains(got, want) {
			t.Errorf("output does not contain %q:\n%s", want, got)
		}
	}
}

// freeLoopbackPorts returns n distinct loopback endpoints that were free a
// moment ago.
func freeLoopbackPorts(t *testing.T, n int) []string {
	t.Helper()
	hosts := make([]string, n)
	for i := range hosts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("no loopback TCP support: %v", err)
		}
		defer ln.Close()
		hosts[i] = ln.Addr().String()
	}
	return hosts
}

// TestHostsMeshHealsItself: three -hosts processes, one SIGKILLed after the
// step-120 checkpoint. A multi-host run has no launcher, so the two
// survivors must shrink onto a generation-1 mesh at their own endpoints
// and resume from the checkpoint by themselves; rank 0's summary must end
// with the uninterrupted run's tail bitwise.
func TestHostsMeshHealsItself(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	if !haveLoopbackTCP(t) {
		t.Skip("no loopback TCP support on this platform")
	}
	exe := buildMLMD(t)
	ref := runMLMD(t, exe, smallArgs...)
	tail := ref[strings.LastIndex(ref, "t = "):]

	hosts := strings.Join(freeLoopbackPorts(t, 3), ",")
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	stdout := make([]strings.Builder, 3)
	stderr := make([]strings.Builder, 3)
	cmds := make([]*exec.Cmd, 3)
	for r := range cmds {
		cmd := exec.Command(exe, append(append([]string{}, smallArgs...),
			"-hosts", hosts, "-hostrank", strconv.Itoa(r), "-max-restarts", "1",
			"-checkpoint-every", "60", "-checkpoint", ckpt)...)
		cmd.Env = append(os.Environ(), "MLMD_TEST_KILL_RANK=2", "MLMD_TEST_KILL_STEP=120")
		cmd.Stdout, cmd.Stderr = &stdout[r], &stderr[r]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[r] = cmd
	}
	errs := make([]error, 3)
	for r, cmd := range cmds {
		errs[r] = cmd.Wait()
	}
	if errs[2] == nil {
		t.Errorf("the victim exited cleanly, want death by SIGKILL\n%s", stderr[2].String())
	}
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v\n%s%s", r, errs[r], stdout[r].String(), stderr[r].String())
		}
	}
	if got := stderr[0].String() + stderr[1].String(); !strings.Contains(got, "generation 1") {
		t.Errorf("the survivors did not name mesh generation 1:\n%s", got)
	}
	if got := stripShardNote(stdout[0].String()); !strings.HasSuffix(got, tail) {
		t.Errorf("healed tail differs from the uninterrupted run\n--- healed ---\n%s\n--- want tail ---\n%s", got, tail)
	}
}

// TestAutoResumeAfterWriterDeath: SIGKILL generation 0's rank 0, the
// checkpoint writer, once, right after its step-120 checkpoint. The two
// survivors must shrink onto generation 1, where the old rank 1 becomes
// the writer and the printer, resume from that checkpoint, and end with
// the golden summary's tail, state CRC included.
func TestAutoResumeAfterWriterDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	if !haveUnixSockets(t) {
		t.Skip("no Unix-domain socket support on this platform")
	}
	exe := buildMLMD(t)
	want, err := os.ReadFile(filepath.Join("testdata", "summary_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	tail := string(want[strings.LastIndex(string(want), "t = "):])

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cmd := exec.Command(exe, append(append([]string{}, smallArgs...),
		"-procs", "3", "-max-restarts", "1",
		"-checkpoint-every", "60", "-checkpoint", ckpt)...)
	cmd.Env = append(os.Environ(), "MLMD_TEST_KILL_RANK=id:0", "MLMD_TEST_KILL_STEP=120")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("run with a dead writer failed: %v\n%s", err, out)
	}
	got := string(out)
	if !strings.Contains(got, "restart 1/1: resuming 2 ranks") || !strings.Contains(got, "generation 1") {
		t.Errorf("the survivors did not announce one shrink to generation 1:\n%s", got)
	}
	if !strings.HasSuffix(stripShardNote(got), tail) {
		t.Errorf("tail after the writer's death differs from the golden summary\n--- got ---\n%s\n--- want tail ---\n%s", got, tail)
	}
}

// TestNoPulseFailsFast: a run without a pulse window has nothing for the
// lattice to respond to, so -mdsteps 0 fails before the ground states are
// prepared; a resume, which skips the pulse, accepts it.
func TestNoPulseFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	exe := buildMLMD(t)
	out, err := exec.Command(exe, "-mdsteps", "0").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-mdsteps must be >= 1") || strings.Contains(string(out), "prepared") {
		t.Errorf("-mdsteps 0: err %v, output %q; want a fail-fast error naming -mdsteps", err, out)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ref := runMLMD(t, exe, append(append([]string{}, smallArgs...), "-checkpoint-every", "60", "-checkpoint", ckpt)...)
	got := runMLMD(t, exe, append(append([]string{}, smallArgs...), "-resume", ckpt, "-mdsteps", "0")...)
	if tail := ref[strings.LastIndex(ref, "t = "):]; !strings.HasSuffix(got, tail) {
		t.Errorf("-resume with -mdsteps 0: tail differs\n--- got ---\n%s\n--- want tail ---\n%s", got, tail)
	}
}
