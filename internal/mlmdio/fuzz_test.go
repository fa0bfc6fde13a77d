package mlmdio

import (
	"bytes"
	"testing"

	"mlmd/internal/md"
)

// Native fuzz targets for the deserialization layer: arbitrary input must
// produce a value or an error — never a panic, and never an allocation far
// beyond the input size (the hardened loaders validate declared counts
// against the payload actually present before allocating from them).

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

// TestCheckpointRoundTripsStillWork guards the hardened system loader
// against over-rejection: a valid stream must still load.
func TestCheckpointRoundTripsStillWork(t *testing.T) {
	if _, err := LoadSystem(bytes.NewReader(validSystemCheckpoint())); err != nil {
		t.Errorf("valid system checkpoint rejected: %v", err)
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
