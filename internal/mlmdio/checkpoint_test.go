package mlmdio

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"mlmd/internal/md"
)

// randomCheckpoint builds a checkpoint with adversarially bit-patterned
// state: denormals, negative zero, huge exponents — everything a resume
// must carry through exactly.
func randomCheckpoint(t *testing.T, seed int64) *Checkpoint {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sys, err := md.NewSystem(17, 12.5, 9.25, 30)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(80)-40))
		}
	}
	fill(sys.X)
	fill(sys.V)
	fill(sys.F)
	fill(sys.Mass)
	sys.X[0], sys.V[1], sys.F[2] = math.Copysign(0, -1), 5e-324, -1e307
	for i := range sys.Type {
		sys.Type[i] = rng.Intn(3)
	}
	cp := &Checkpoint{
		Step: 1234567, Time: 987.0625,
		Dt: 10.5, KT: 1.5e-3, Tau: 400,
		Grid:  [3]int{2, 3, 1},
		Extra: make([]float64, 37),
		Loads: make([]float64, 6),
		Sys:   sys,
	}
	fill(cp.Extra)
	fill(cp.Loads)
	cp.Cuts[0] = []float64{0, 4.0625, 12.5}
	cp.Cuts[1] = []float64{0, 3, 6.125, 9.25}
	cp.Cuts[2] = []float64{0, 30}
	return cp
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCheckpointRoundTripBitwise (ISSUE 6 satellite): Save→Load restores
// every field of the checkpoint — the md.System bit-exactly, including NaN
// payloads, ±Inf, −0, subnormals and the largest Type — for several random
// seeds.
func TestCheckpointRoundTripBitwise(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cp := randomCheckpoint(t, seed)
		addEdgeValues(cp.Sys)
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Step != cp.Step || got.Time != cp.Time ||
			got.Dt != cp.Dt || got.KT != cp.KT || got.Tau != cp.Tau || got.Grid != cp.Grid {
			t.Errorf("seed %d: scalar state mismatch: %+v", seed, got)
		}
		for a := 0; a < 3; a++ {
			if !bitsEqual(got.Cuts[a], cp.Cuts[a]) {
				t.Errorf("seed %d: cuts axis %d mismatch", seed, a)
			}
		}
		if !bitsEqual(got.Extra, cp.Extra) {
			t.Errorf("seed %d: extra vector mismatch", seed)
		}
		if !bitsEqual(got.Loads, cp.Loads) {
			t.Errorf("seed %d: load profile mismatch", seed)
		}
		s, g := cp.Sys, got.Sys
		if g.N != s.N || g.Lx != s.Lx || g.Ly != s.Ly || g.Lz != s.Lz {
			t.Fatalf("seed %d: system shape mismatch", seed)
		}
		if !bitsEqual(g.X, s.X) || !bitsEqual(g.V, s.V) || !bitsEqual(g.F, s.F) || !bitsEqual(g.Mass, s.Mass) {
			t.Errorf("seed %d: system state not bit-identical", seed)
		}
		for i := range s.Type {
			if g.Type[i] != s.Type[i] {
				t.Errorf("seed %d: type[%d] = %d want %d", seed, i, g.Type[i], s.Type[i])
				break
			}
		}
	}
}

// TestCheckpointTruncationErrors: every truncation point fails with a
// descriptive error, never a panic or a silently short system.
func TestCheckpointTruncationErrors(t *testing.T) {
	cp := randomCheckpoint(t, 42)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 1, 10, len(full) / 2, len(full) - 1} {
		if _, err := LoadCheckpoint(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("accepted checkpoint truncated to %d of %d bytes", cut, len(full))
		}
	}
	_, err := LoadCheckpoint(bytes.NewReader(full[:len(full)-1]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("payload truncation error %q should say truncated", err)
	}
}

// TestCheckpointCorruptionErrors: flipped payload bytes are caught by the
// checksum before the system decoder ever sees them.
func TestCheckpointCorruptionErrors(t *testing.T) {
	cp := randomCheckpoint(t, 7)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-5] ^= 0x40 // payload region (well past the manifest)
	_, err := LoadCheckpoint(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("accepted corrupted payload")
	}
	if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "corrupted") {
		t.Errorf("corruption error %q should mention the checksum", err)
	}
}

// TestCheckpointRejectsBadManifests: hostile manifests (wrong version,
// implausible sizes, inconsistent cuts) are rejected before any
// size-derived allocation.
func TestCheckpointRejectsBadManifests(t *testing.T) {
	base := randomCheckpoint(t, 3)
	encode := func(mut func(*Checkpoint)) []byte {
		cp := *base
		mut(&cp)
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, &cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string]func(*Checkpoint){
		"negative step":      func(c *Checkpoint) { c.Step = -1 },
		"huge grid axis":     func(c *Checkpoint) { c.Grid = [3]int{1 << 20, 1, 1}; c.Cuts = [3][]float64{} },
		"cuts/grid mismatch": func(c *Checkpoint) { c.Cuts[0] = []float64{0, 1, 2, 3, 4, 5} },
	}
	for name, mut := range cases {
		if _, err := LoadCheckpoint(bytes.NewReader(encode(mut))); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := SaveCheckpoint(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	if err := SaveCheckpoint(&bytes.Buffer{}, &Checkpoint{}); err == nil {
		t.Error("systemless checkpoint accepted")
	}
}

// TestWriteCheckpointFileAtomic: the file appears complete or not at all,
// path.prev keeps the snapshot before, the directory holds exactly the
// ring's three names from the third write on, and a failed write leaves
// no litter and both snapshots intact.
func TestWriteCheckpointFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cp := randomCheckpoint(t, 11)
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != cp.Step || !bitsEqual(got.Sys.X, cp.Sys.X) {
		t.Error("file round-trip mismatch")
	}
	// Overwrite with later snapshots: readers only ever see one or the other.
	for k := int64(1); k <= 2; k++ {
		next := randomCheckpoint(t, 11+k)
		next.Step = cp.Step + 500*k
		if err := WriteCheckpointFile(path, next); err != nil {
			t.Fatal(err)
		}
	}
	wantSteps := func(when string) {
		t.Helper()
		for name, want := range map[string]int64{path: cp.Step + 1000, path + ".prev": cp.Step + 500} {
			if got, err := ReadCheckpointFile(name); err != nil || got.Step != want {
				t.Fatalf("%s: %s holds step %d (err %v), want %d", when, filepath.Base(name), stepOf(got), err, want)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{".run.ckpt.spare", "run.ckpt", "run.ckpt.prev"}; !slices.Equal(names, want) {
			t.Errorf("%s: checkpoint dir holds %q, want %q", when, names, want)
		}
	}
	wantSteps("after three writes")
	if err := WriteCheckpointFile(path, &Checkpoint{Step: cp.Step + 1500}); err == nil {
		t.Fatal("systemless checkpoint written")
	}
	wantSteps("after a failed write")
	if _, err := ReadCheckpointFile(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Error("reading a missing checkpoint succeeded")
	}
	if err := WriteCheckpointFile(filepath.Join(dir, "no-such-dir", "x.ckpt"), cp); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}

// stepOf is cp's step, or -1 for no checkpoint.
func stepOf(cp *Checkpoint) int64 {
	if cp == nil {
		return -1
	}
	return cp.Step
}

// ringFiles stats path, path.prev and the spare of path's ring.
func ringFiles(t *testing.T, path string) [3]os.FileInfo {
	t.Helper()
	r := ringOf(path)
	var fi [3]os.FileInfo
	for i, name := range []string{r.path, r.prev, r.spare} {
		var err error
		if fi[i], err = os.Stat(name); err != nil {
			t.Fatal(err)
		}
	}
	return fi
}

// TestCheckpointRingRecyclesInodes: in steady state a write frees no
// block — the inodes under path, path.prev and the spare are the same
// three over 20 writes (each write rotates them), and path and path.prev
// hold the newest two steps.
func TestCheckpointRingRecyclesInodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp := randomCheckpoint(t, 21)
	for step := int64(1); step <= 3; step++ {
		cp.Step = step
		if err := WriteCheckpointFile(path, cp); err != nil {
			t.Fatal(err)
		}
	}
	ring := ringFiles(t, path)
	for step := int64(4); step <= 23; step++ {
		cp.Step = step
		if err := WriteCheckpointFile(path, cp); err != nil {
			t.Fatal(err)
		}
		got := ringFiles(t, path)
		for _, fi := range got {
			if !slices.ContainsFunc(ring[:], func(r os.FileInfo) bool { return os.SameFile(r, fi) }) {
				t.Fatalf("write of step %d left a new inode in the ring", step)
			}
		}
		if os.SameFile(got[0], ring[0]) {
			t.Fatalf("write of step %d did not rotate path's inode", step)
		}
		ring = got
		_, newest, err := NewestValidCheckpoint([]string{path, path + ".prev"})
		prev, perr := ReadCheckpointFile(path + ".prev")
		if err != nil || perr != nil || newest.Step != step || prev.Step != step-1 {
			t.Fatalf("after step %d: newest %d (%v), prev %d (%v)", step, stepOf(newest), err, stepOf(prev), perr)
		}
	}
}

// TestCheckpointHeldReaderSeesNoChange: a reader holding path's inode under
// its shared lock keeps decoding that snapshot across three writes — the
// third finds the inode in the spare slot, leaves it to the reader and
// writes a fresh one — and the ring is whole again afterwards.
func TestCheckpointHeldReaderSeesNoChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp := randomCheckpoint(t, 31)
	for step := int64(1); step <= 3; step++ {
		cp.Step = step
		if err := WriteCheckpointFile(path, cp); err != nil {
			t.Fatal(err)
		}
	}
	f, err := openShared(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	held, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(4); step <= 6; step++ {
		cp.Step = step
		if err := WriteCheckpointFile(path, cp); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadCheckpoint(f)
	if err != nil || got.Step != 3 || !systemsBitwiseEqual(got.Sys, cp.Sys) {
		t.Fatalf("held reader decoded step %d (err %v), want step 3", stepOf(got), err)
	}
	for _, fi := range ringFiles(t, path) {
		if os.SameFile(fi, held) {
			t.Error("the held inode is still in the ring")
		}
	}
	if got, err := ReadCheckpointFile(path); err != nil || got.Step != 6 {
		t.Errorf("path holds step %d (err %v), want step 6", stepOf(got), err)
	}
}

// TestCheckpointConcurrentWritersOnePath: two goroutines write one path
// while a third reads it; every read decodes a written step, and the ring
// ends whole, holding the last two writes.
func TestCheckpointConcurrentWritersOnePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	const writes = 15
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := int64(0); g < 2; g++ {
		cp := randomCheckpoint(t, 41+g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(1); k <= writes; k++ {
				cp.Step = 100*g + k
				if err := WriteCheckpointFile(path, cp); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	read := make(chan int)
	go func() {
		n := 0
		defer func() { read <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := ReadCheckpointFile(path)
			switch {
			case errors.Is(err, fs.ErrNotExist):
				continue // before the first write
			case err != nil:
				errs <- fmt.Errorf("concurrent read: %w", err)
				return
			case got.Step%100 < 1 || got.Step%100 > writes || got.Step/100 > 1:
				errs <- fmt.Errorf("concurrent read: step %d was never written", got.Step)
				return
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	t.Logf("%d reads during the writes", <-read)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cur, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := ReadCheckpointFile(path + ".prev")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Step%100 != writes || cur.Step == prev.Step {
		t.Errorf("path and path.prev hold steps %d and %d, want a writer's last and another write", cur.Step, prev.Step)
	}
	ringFiles(t, path)
}
