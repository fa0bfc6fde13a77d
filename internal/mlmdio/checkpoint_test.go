package mlmdio

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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
// a failed write leaves no temp litter, and an existing checkpoint
// survives an overwrite attempt into a bad location.
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
	// Overwrite with a later snapshot: readers only ever see one or the other.
	cp2 := randomCheckpoint(t, 12)
	cp2.Step = cp.Step + 500
	if err := WriteCheckpointFile(path, cp2); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadCheckpointFile(path); err != nil || got.Step != cp2.Step {
		t.Fatalf("overwrite: step %d err %v", got.Step, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir has %d entries (temp litter?), want 1", len(entries))
	}
	if _, err := ReadCheckpointFile(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Error("reading a missing checkpoint succeeded")
	}
	if err := WriteCheckpointFile(filepath.Join(dir, "no-such-dir", "x.ckpt"), cp); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}
