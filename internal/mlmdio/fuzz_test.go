package mlmdio

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"mlmd/internal/allegro"
	"mlmd/internal/grid"
	"mlmd/internal/md"
)

// Native fuzz targets for the deserialization layer: arbitrary input must
// produce a value or an error — never a panic, and never an allocation far
// beyond the input size (the hardened loaders validate declared counts
// against the payload actually present before allocating from them).

func validXYZ() []byte {
	sys, _ := md.NewSystem(3, 10, 10, 10)
	sys.X[0], sys.X[4], sys.X[8] = 1, 2, 3
	sys.Type[2] = 2
	var buf bytes.Buffer
	_ = WriteXYZ(&buf, sys, "fuzz seed")
	return buf.Bytes()
}

func FuzzReadXYZ(f *testing.F) {
	f.Add(validXYZ())
	f.Add([]byte(""))
	f.Add([]byte("2\ncomment\nX 1 2 3\n"))             // truncated
	f.Add([]byte("999999999999\ncomment\nX 1 2 3\n"))  // huge claimed count
	f.Add([]byte("-5\ncomment\n"))                     // negative count
	f.Add([]byte("2\nc\nX 1 2 notanumber\nY 4 5 6\n")) // bad coordinate
	f.Add([]byte("3\nc\nX 1 2\nY 4 5 6\nZ 7 8 9\n"))   // short line
	f.Add([]byte("1\n\nPb 1e308 -1e308 0.0\n"))        // extreme values
	f.Add([]byte("1\nc\nPb NaN Inf -Inf\n"))           // non-finite
	f.Add([]byte(strings.Repeat("7\n", 100)))          // garbage lines
	f.Fuzz(func(t *testing.T, data []byte) {
		names, xyz, err := ReadXYZ(bytes.NewReader(data))
		if err == nil {
			if len(xyz) != 3*len(names) || len(names) == 0 {
				t.Fatalf("accepted frame with %d names, %d coords", len(names), len(xyz))
			}
		}
	})
}

func validSystemCheckpoint() []byte {
	sys, _ := md.NewSystem(4, 5, 5, 5)
	for i := range sys.X {
		sys.X[i] = float64(i)
	}
	var buf bytes.Buffer
	_ = SaveSystem(&buf, sys)
	return buf.Bytes()
}

func FuzzLoadSystem(f *testing.F) {
	valid := validSystemCheckpoint()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add(valid[2:])            // desynchronized
	f.Add([]byte{})
	f.Add([]byte("not a gob stream at all"))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0xff
	f.Add(mutated)
	f.Add(v1SystemStream(f, validRunSystem(f)))                            // a version-1 gob system
	f.Add(systemHeaderBytes(systemMagic, 1<<40, 5)[:32])                   // 2^40 atoms claimed in 32 bytes
	f.Add(append(systemHeaderBytes(systemMagic, 1<<40, 5), valid[40:]...)) // 2^40 atoms over a 4-atom body
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := LoadSystem(bytes.NewReader(data))
		if err == nil {
			if sys.N < 1 || len(sys.X) != 3*sys.N || len(sys.Mass) != sys.N {
				t.Fatalf("accepted inconsistent system: N=%d |X|=%d |Mass|=%d", sys.N, len(sys.X), len(sys.Mass))
			}
		}
	})
}

func validModelCheckpoint(tb testing.TB) []byte {
	m, err := allegro.NewModel(allegro.DescriptorSpec{Cutoff: 2.0, NRadial: 3, NSpecies: 2}, []int{8}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzLoadModel(f *testing.F) {
	valid := validModelCheckpoint(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[1:])
	f.Add([]byte{})
	f.Add([]byte("gobbledygook"))
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0x55
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err == nil {
			if len(m.Nets) != m.Spec.NSpecies || m.Spec.NSpecies < 1 {
				t.Fatalf("accepted inconsistent model: %d nets for %d species", len(m.Nets), m.Spec.NSpecies)
			}
		}
	})
}

func validWaveFieldCheckpoint() []byte {
	g := grid.New(2, 3, 2, 0.5, 0.5, 0.5)
	w := grid.NewWaveField(g, 2, 0)
	for i := range w.Data {
		w.Data[i] = complex(float64(i), 1)
	}
	var buf bytes.Buffer
	_ = SaveWaveField(&buf, w)
	return buf.Bytes()
}

func FuzzLoadWaveField(f *testing.F) {
	valid := validWaveFieldCheckpoint()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[3:])
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/4] ^= 0xa5
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := LoadWaveField(bytes.NewReader(data))
		if err == nil {
			if len(w.Data) != w.G.Len()*w.Norb {
				t.Fatalf("accepted inconsistent wave field: %d samples for %dx%dx%dx%d",
					len(w.Data), w.G.Nx, w.G.Ny, w.G.Nz, w.Norb)
			}
		}
	})
}

// TestCheckpointRoundTripsStillWork guards the hardened loaders against
// over-rejection: valid streams must still load.
func TestCheckpointRoundTripsStillWork(t *testing.T) {
	if _, _, err := ReadXYZ(bytes.NewReader(validXYZ())); err != nil {
		t.Errorf("valid XYZ rejected: %v", err)
	}
	if _, err := LoadSystem(bytes.NewReader(validSystemCheckpoint())); err != nil {
		t.Errorf("valid system checkpoint rejected: %v", err)
	}
	if _, err := LoadModel(bytes.NewReader(validModelCheckpoint(t))); err != nil {
		t.Errorf("valid model checkpoint rejected: %v", err)
	}
	if _, err := LoadWaveField(bytes.NewReader(validWaveFieldCheckpoint())); err != nil {
		t.Errorf("valid wave-field checkpoint rejected: %v", err)
	}
	// the regression the hardened LoadWaveField exists for: a 1-point axis
	// must error, not panic inside grid.New
	g := grid.New(2, 2, 2, 0.5, 0.5, 0.5)
	w := grid.NewWaveField(g, 1, 0)
	var buf bytes.Buffer
	_ = SaveWaveField(&buf, w)
	raw := buf.Bytes()
	var cp fieldCheckpoint
	_ = gob.NewDecoder(bytes.NewReader(raw)).Decode(&cp)
	cp.Nx, cp.Data = 1, cp.Data[:1*cp.Ny*cp.Nz*cp.Norb]
	buf.Reset()
	_ = gob.NewEncoder(&buf).Encode(cp)
	if _, err := LoadWaveField(&buf); err == nil {
		t.Error("1-point-axis wave-field checkpoint accepted")
	}
}

func validRunSystem(tb testing.TB) *md.System {
	sys, err := md.NewSystem(5, 8, 8, 8)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range sys.X {
		sys.X[i] = 0.5 * float64(i)
		sys.V[i] = -0.25 * float64(i)
		sys.F[i] = float64(i) * 1e-3
	}
	return sys
}

func validRunCheckpoint(tb testing.TB) []byte {
	sys := validRunSystem(tb)
	cp := &Checkpoint{
		Step: 360, Time: 3780, Dt: 10.5, KT: 1e-3, Tau: 400,
		Grid:  [3]int{2, 1, 1},
		Cuts:  [3][]float64{{0, 4, 8}, {0, 8}, {0, 8}},
		Extra: []float64{0.25, 0.5, 0.75},
		Sys:   sys,
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadCheckpoint (ISSUE 6 satellite): arbitrary bytes fed to the run
// checkpoint decoder must yield a checkpoint or a descriptive error —
// never a panic, an unbounded allocation, or a silently inconsistent
// resume state.
func FuzzLoadCheckpoint(f *testing.F) {
	valid := validRunCheckpoint(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated inside the manifest or payload
	f.Add(valid[:len(valid)-3]) // truncated payload tail
	f.Add(valid[1:])            // desynchronized gob stream
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)-7] ^= 0xff // payload corruption (CRC must catch)
	f.Add(mutated)
	headerFlip := append([]byte(nil), valid...)
	headerFlip[6] ^= 0x10 // manifest corruption
	f.Add(headerFlip)
	f.Add(v1Checkpoint(f)) // a version-1 file
	// A manifest whose checksummed payload is a 32-byte header claiming
	// 2^40 atoms.
	huge := systemHeaderBytes(systemMagic, 1<<40, 8)[:32]
	f.Add(rawCheckpoint(f, checkpointManifest{
		Version: CheckpointVersion, PayloadLen: int64(len(huge)), PayloadCRC: payloadCRC(huge),
	}, huge))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever the fuzzer got accepted must be internally consistent.
		if cp.Sys == nil || cp.Sys.N < 1 || len(cp.Sys.X) != 3*cp.Sys.N ||
			len(cp.Sys.V) != 3*cp.Sys.N || len(cp.Sys.F) != 3*cp.Sys.N ||
			len(cp.Sys.Mass) != cp.Sys.N || cp.Step < 0 {
			t.Fatalf("accepted inconsistent checkpoint: %+v", cp)
		}
		for a := 0; a < 3; a++ {
			if cp.Grid[a] > 0 && len(cp.Cuts[a]) != 0 && len(cp.Cuts[a]) != cp.Grid[a]+1 {
				t.Fatalf("accepted cuts/grid mismatch on axis %d", a)
			}
		}
	})
}
