package mlmdio

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mlmd/internal/md"
)

// maxTestType is the largest Type the payload carries that also fits int.
func maxTestType() int {
	u := uint64(math.MaxUint32)
	if strconv.IntSize == 32 {
		u = math.MaxInt32
	}
	return int(u)
}

// addEdgeValues plants the values a bitwise codec must carry untouched:
// NaNs with payload bits (quiet and signalling), ±Inf, −0, subnormals, the
// extremes of the normal range and the largest Type.
func addEdgeValues(sys *md.System) {
	bits := []uint64{
		0x7ff8_dead_beef_0001, // quiet NaN with payload
		0xfff0_0000_0000_0001, // negative signalling NaN
		0x7ff0_0000_0000_0000, // +Inf
		0xfff0_0000_0000_0000, // −Inf
		0x8000_0000_0000_0000, // −0
		0x0000_0000_0000_0001, // smallest subnormal
		0x800f_ffff_ffff_ffff, // largest negative subnormal
		0x7fef_ffff_ffff_ffff, // MaxFloat64
	}
	for k, b := range bits {
		v := math.Float64frombits(b)
		sys.X[k%len(sys.X)] = v
		sys.V[(k+1)%len(sys.V)] = v
		sys.F[(k+2)%len(sys.F)] = v
		sys.Mass[k%len(sys.Mass)] = v
	}
	sys.Type[len(sys.Type)-1] = maxTestType()
	sys.Type[0] = 0
}

func systemsBitwiseEqual(a, b *md.System) bool {
	if a.N != b.N || math.Float64bits(a.Lx) != math.Float64bits(b.Lx) ||
		math.Float64bits(a.Ly) != math.Float64bits(b.Ly) || math.Float64bits(a.Lz) != math.Float64bits(b.Lz) {
		return false
	}
	if !bitsEqual(a.X, b.X) || !bitsEqual(a.V, b.V) || !bitsEqual(a.F, b.F) || !bitsEqual(a.Mass, b.Mass) {
		return false
	}
	for i := range a.Type {
		if a.Type[i] != b.Type[i] {
			return false
		}
	}
	return len(a.Type) == len(b.Type)
}

// TestSystemPayloadLayout pins the documented byte layout: header fields at
// their offsets, the arrays in order as little-endian bits, Type as u32.
func TestSystemPayloadLayout(t *testing.T) {
	sys, err := md.NewSystem(2, 1.5, 2.5, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sys.X {
		sys.X[i], sys.V[i], sys.F[i] = float64(i+1), -float64(i+1), 0.5*float64(i)
	}
	sys.Mass[0], sys.Mass[1] = 30, 50
	sys.Type[0], sys.Type[1] = 1, 7
	var buf bytes.Buffer
	if err := SaveSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	p := buf.Bytes()
	if int64(len(p)) != systemPayloadLen(2) || len(p) != 40+2*84 {
		t.Fatalf("payload is %d bytes, want %d", len(p), 40+2*84)
	}
	le := binary.LittleEndian
	word := func(off int) float64 { return math.Float64frombits(le.Uint64(p[off:])) }
	if string(p[:8]) != "mlmdsys1" || le.Uint64(p[8:]) != 2 || word(16) != 1.5 || word(24) != 2.5 || word(32) != 3.5 {
		t.Errorf("header % x", p[:40])
	}
	if word(40) != 1 || word(40+6*8) != -1 || word(40+12*8+8) != 0.5 || word(40+18*8+8) != 50 {
		t.Error("arrays not at X, V, F, Mass offsets")
	}
	if le.Uint32(p[40+20*8:]) != 1 || le.Uint32(p[40+20*8+4:]) != 7 {
		t.Error("types not u32 after Mass")
	}
}

// TestSystemCodecEdgeValues: every bit of the edge table survives
// SaveSystem/LoadSystem, on several system sizes.
func TestSystemCodecEdgeValues(t *testing.T) {
	for _, n := range []int{1, 3, 17, 1000} {
		sys, err := md.NewSystem(n, 4, 5, math.SmallestNonzeroFloat64)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sys.X {
			sys.X[i] = float64(i) * 0.25
			sys.V[i] = -float64(i) / 3
			sys.F[i] = math.Ldexp(1, i%2000-1000)
		}
		for i := range sys.Type {
			sys.Type[i] = i * 7919
		}
		addEdgeValues(sys)
		var buf bytes.Buffer
		if err := SaveSystem(&buf, sys); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSystem(&buf)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if !systemsBitwiseEqual(got, sys) {
			t.Errorf("N=%d: system not bit-identical after the round trip", n)
		}
		if buf.Len() != 0 {
			t.Errorf("N=%d: LoadSystem left %d bytes of its own payload unread", n, buf.Len())
		}
	}
}

// TestSaveSystemRejectsMalformed: a system whose slices disagree with N, or
// whose Type does not fit u32, is an error and writes nothing.
func TestSaveSystemRejectsMalformed(t *testing.T) {
	fresh := func() *md.System {
		sys, err := md.NewSystem(4, 3, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cases := map[string]func(*md.System){
		"zero atoms":     func(s *md.System) { s.N = 0 },
		"N beyond cap":   func(s *md.System) { s.N = maxSystemAtoms + 1 },
		"short X":        func(s *md.System) { s.X = s.X[:11] },
		"long V":         func(s *md.System) { s.V = append(s.V, 1) },
		"short F":        func(s *md.System) { s.F = s.F[:0] },
		"short Mass":     func(s *md.System) { s.Mass = s.Mass[:3] },
		"long Type":      func(s *md.System) { s.Type = append(s.Type, 0) },
		"N above slices": func(s *md.System) { s.N = 5 },
		"negative type":  func(s *md.System) { s.Type[2] = -1 },
	}
	if strconv.IntSize == 64 {
		big := uint64(math.MaxUint32) + 1
		cases["type 2^32"] = func(s *md.System) { s.Type[3] = int(big) }
	}
	for name, mut := range cases {
		sys := fresh()
		mut(sys)
		var buf bytes.Buffer
		err := SaveSystem(&buf, sys)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: wrote %d bytes before failing", name, buf.Len())
		}
		if err := SaveCheckpoint(&buf, &Checkpoint{Sys: sys}); err == nil || buf.Len() != 0 {
			t.Errorf("%s: SaveCheckpoint err %v after %d bytes", name, err, buf.Len())
		}
	}
}

// systemHeaderBytes is a header with the given magic, count and box.
func systemHeaderBytes(magic string, n uint64, box float64) []byte {
	h := make([]byte, systemHeaderLen)
	copy(h, magic)
	le := binary.LittleEndian
	le.PutUint64(h[8:], n)
	for a := 0; a < 3; a++ {
		le.PutUint64(h[16+8*a:], math.Float64bits(box))
	}
	return h
}

// TestLoadSystemRejectsMalformed: bad magic, implausible counts, a box that
// is not positive, and a body shorter than N needs are errors.
func TestLoadSystemRejectsMalformed(t *testing.T) {
	valid := validSystemCheckpoint()
	cases := map[string][]byte{
		"empty":            nil,
		"short header":     valid[:systemHeaderLen-1],
		"bad magic":        append(systemHeaderBytes("mlmdsys0", 4, 5), valid[systemHeaderLen:]...),
		"zero atoms":       systemHeaderBytes(systemMagic, 0, 5),
		"2^40 atoms":       append(systemHeaderBytes(systemMagic, 1<<40, 5), make([]byte, 4096)...),
		"count above cap":  systemHeaderBytes(systemMagic, maxSystemAtoms+1, 5),
		"NaN box":          append(systemHeaderBytes(systemMagic, 4, math.NaN()), valid[systemHeaderLen:]...),
		"negative box":     append(systemHeaderBytes(systemMagic, 4, -1), valid[systemHeaderLen:]...),
		"body one short":   valid[:len(valid)-1],
		"count above body": append(systemHeaderBytes(systemMagic, 5, 5), valid[systemHeaderLen:]...),
	}
	for name, data := range cases {
		if _, err := LoadSystem(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A whole payload whose body is longer than its count declares is an
	// error where the payload length is known (inside a checkpoint).
	if _, err := decodeSystem(append(valid, 0)); err == nil {
		t.Error("payload with a trailing byte accepted")
	}
}

// legacySystem is the gob image of an md.System in checkpoint version 1.
type legacySystem struct {
	N          int
	Lx, Ly, Lz float64
	X, V, F    []float64
	Mass       []float64
	Type       []int
}

// v1SystemStream is a version-1 system payload (gob) of sys.
func v1SystemStream(tb testing.TB, sys *md.System) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacySystem{
		N: sys.N, Lx: sys.Lx, Ly: sys.Ly, Lz: sys.Lz,
		X: sys.X, V: sys.V, F: sys.F, Mass: sys.Mass, Type: sys.Type,
	}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rawCheckpoint is a gob manifest followed by payload, as written to disk.
func rawCheckpoint(tb testing.TB, m checkpointManifest, payload []byte) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		tb.Fatal(err)
	}
	return append(buf.Bytes(), payload...)
}

// v1Checkpoint is a complete version-1 file: the gob system payload under a
// Version 1 manifest carrying its CRC-64/ECMA.
func v1Checkpoint(tb testing.TB) []byte {
	cp, err := LoadCheckpoint(bytes.NewReader(validRunCheckpoint(tb)))
	if err != nil {
		tb.Fatal(err)
	}
	payload := v1SystemStream(tb, cp.Sys)
	return rawCheckpoint(tb, checkpointManifest{
		Version: 1, Step: cp.Step, Dt: cp.Dt, Grid: cp.Grid, Cuts: cp.Cuts,
		PayloadLen: int64(len(payload)),
		PayloadCRC: crc64.Checksum(payload, crc64.MakeTable(crc64.ECMA)),
	}, payload)
}

// TestCheckpointRejectsVersion1: a file in the version-1 layout is refused
// by the version check, before its payload is read.
func TestCheckpointRejectsVersion1(t *testing.T) {
	_, err := LoadCheckpoint(bytes.NewReader(v1Checkpoint(t)))
	if err == nil || !strings.Contains(err.Error(), "checkpoint version 1, want 2") {
		t.Fatalf("v1 file: err %v, want the version check", err)
	}
	if _, err := LoadSystem(bytes.NewReader(v1SystemStream(t, validRunSystem(t)))); err == nil {
		t.Error("LoadSystem accepted a version-1 gob system stream")
	}
}

// TestCheckpointPayloadLengthChecked: a payload whose checksum is right but
// whose length disagrees with its own header is still refused.
func TestCheckpointPayloadLengthChecked(t *testing.T) {
	valid := validSystemCheckpoint()
	for _, payload := range [][]byte{valid[:len(valid)-4], append(valid[:len(valid):len(valid)], 1, 2, 3, 4)} {
		data := rawCheckpoint(t, checkpointManifest{
			Version: CheckpointVersion, PayloadLen: int64(len(payload)), PayloadCRC: payloadCRC(payload),
		}, payload)
		if _, err := LoadCheckpoint(bytes.NewReader(data)); err == nil {
			t.Errorf("%d-byte payload for a %d-byte system accepted", len(payload), len(valid))
		}
	}
}

// TestCheckpointDetectsEveryBitFlip: every single-bit flip of a small
// checkpoint's payload, and a swap of two distinct 8-byte words, fails the
// checksum.
func TestCheckpointDetectsEveryBitFlip(t *testing.T) {
	sys, err := md.NewSystem(2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sys.X {
		sys.X[i], sys.V[i], sys.F[i] = 0.1*float64(i), -0.2*float64(i), 1e-3*float64(i+1)
	}
	sys.Mass[0], sys.Mass[1], sys.Type[1] = 12, 16, 1
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, &Checkpoint{Step: 8, Sys: sys}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	start := len(full) - int(systemPayloadLen(sys.N))
	check := func(what string, data []byte) {
		t.Helper()
		_, err := LoadCheckpoint(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("%s: err %v, want a checksum failure", what, err)
		}
	}
	data := append([]byte(nil), full...)
	for bit := 0; bit < 8*(len(full)-start); bit++ {
		data[start+bit/8] ^= 1 << (bit % 8)
		check("flip of payload bit "+strconv.Itoa(bit), data)
		data[start+bit/8] ^= 1 << (bit % 8)
	}
	// X[0] (0) and X[1] (0.1) are distinct words.
	i, j := start+systemHeaderLen, start+systemHeaderLen+8
	if bytes.Equal(data[i:i+8], data[j:j+8]) {
		t.Fatal("swap words are equal")
	}
	var tmp [8]byte
	copy(tmp[:], data[i:i+8])
	copy(data[i:i+8], data[j:j+8])
	copy(data[j:j+8], tmp[:])
	check("swap of X[0] and X[1]", data)
}

// TestSaveCheckpointAllocsIndependentOfN: a warm SaveCheckpoint allocates
// about as many bytes for 5 324 atoms as for 17 — the payload buffer is
// pooled, and only the manifest's gob encoder allocates.
func TestSaveCheckpointAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	bytesPerSave := func(cp *Checkpoint) uint64 {
		const runs = 100
		for i := 0; i < 3; i++ {
			if err := SaveCheckpoint(io.Discard, cp); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := SaveCheckpoint(io.Discard, cp); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small := randomCheckpoint(t, 5)
	big := *small
	big.Sys = benchSystem(t)
	bs, bb := bytesPerSave(small), bytesPerSave(&big)
	t.Logf("warm SaveCheckpoint: %d B/op at N=%d, %d B/op at N=%d", bs, small.Sys.N, bb, big.Sys.N)
	// One payload at N=5324 is 447 KB; allow a few KB for gob and for a pool
	// refill after a collection.
	if bb > bs+8<<10 {
		t.Errorf("SaveCheckpoint allocates %d B/op at N=%d against %d at N=%d: payload not pooled",
			bb, big.Sys.N, bs, small.Sys.N)
	}
}

// TestSaveCheckpointConcurrent: goroutines sharing the payload pool write
// different systems, and every checkpoint round-trips bitwise.
func TestSaveCheckpointConcurrent(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		cp := randomCheckpoint(t, int64(100+g))
		sys, err := md.NewSystem(17+40*g, 10, 11, 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sys.X {
			sys.X[i], sys.V[i], sys.F[i] = float64(g)+0.5*float64(i), -float64(i), float64(g*i)
		}
		for i := range sys.Mass {
			sys.Mass[i], sys.Type[i] = float64(1+g), g
		}
		addEdgeValues(sys)
		cp.Sys = sys
		path := filepath.Join(dir, "g"+strconv.Itoa(g)+".ckpt")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				cp.Step = int64(rep)
				var buf bytes.Buffer
				if err := SaveCheckpoint(&buf, cp); err != nil {
					errs <- err.Error()
					return
				}
				got, err := LoadCheckpoint(&buf)
				if err != nil || got.Step != cp.Step || !systemsBitwiseEqual(got.Sys, cp.Sys) {
					errs <- "in-memory round trip of system " + strconv.Itoa(sys.N) + " failed"
					return
				}
				if err := WriteCheckpointFile(path, cp); err != nil {
					errs <- err.Error()
					return
				}
				got, err = ReadCheckpointFile(path)
				if err != nil || !systemsBitwiseEqual(got.Sys, cp.Sys) {
					errs <- "file round trip of system " + strconv.Itoa(sys.N) + " failed"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// benchSystem is md.lj.ckpt's system: 11³ fcc cells (5 324 atoms) at
// spacing 1.7 and mass 50, velocities at kT 3e-4, and non-zero forces.
func benchSystem(tb testing.TB) *md.System {
	sys, err := md.NewFCCSystem(11, 1.7, 50)
	if err != nil {
		tb.Fatal(err)
	}
	sys.InitVelocities(3e-4, 1)
	for i := range sys.F {
		sys.F[i] = 1e-3 * math.Sin(float64(i))
	}
	return sys
}

// BenchmarkWriteCheckpointFile splits a checkpoint write of md.lj.ckpt's
// system into its parts, each in MB/s of payload: Encode (the system
// payload into a retained buffer), Check (CRC-32C ‖ CRC-32/IEEE over it)
// and File (WriteCheckpointFile: encode, checksum, manifest, temp file,
// fsync and rename).
func BenchmarkWriteCheckpointFile(b *testing.B) {
	sys := benchSystem(b)
	n := systemPayloadLen(sys.N)
	payload, err := appendSystem(nil, sys)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.SetBytes(n)
		buf := make([]byte, 0, n)
		for b.Loop() {
			if buf, err = appendSystem(buf[:0], sys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Check", func(b *testing.B) {
		b.SetBytes(n)
		for b.Loop() {
			payloadCRC(payload)
		}
	})
	b.Run("File", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.ckpt")
		cp := &Checkpoint{Step: 8, Dt: 2, Grid: [3]int{2, 1, 1}, Sys: sys}
		cp.Cuts = [3][]float64{{0, sys.Lx / 2, sys.Lx}, {0, sys.Ly}, {0, sys.Lz}}
		b.SetBytes(n)
		for b.Loop() {
			if err := WriteCheckpointFile(path, cp); err != nil {
				b.Fatal(err)
			}
		}
		if st, err := os.Stat(path); err == nil {
			b.ReportMetric(float64(st.Size()), "file_B")
		}
	})
}
