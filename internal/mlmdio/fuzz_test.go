package mlmdio

import (
	"bytes"
	"os"
	"path/filepath"
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

// FuzzCheckpointRing drives one checkpoint path through a sequence of
// operations, one per input byte b: b%4 = 0 writes the next step, 1 writes
// it but stops after (b/4)%swapSteps rotation steps as a crash would, 2
// only reads, and 3 takes or drops a reader's shared hold on path. After
// every operation:
//   - NewestValidCheckpoint([path, path.prev]) returns the last completed
//     write's step, or the interrupted write's once its spare has taken path
//     (rotation step 3 on), and path.prev the step path held before;
//   - no inode is linked under two of path, path.prev and the spare;
//   - after a completed write no other name (a hold or a temp file) is left.
func FuzzCheckpointRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2})
	for k := byte(0); k < swapSteps; k++ {
		f.Add([]byte{0, 0, 0, 1 + 4*k, 2, 0, 2})
		f.Add([]byte{0, 0, 1 + 4*k, 1 + 4*((k+3)%swapSteps), 0, 2})
	}
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0, 3, 0, 2})
	f.Add([]byte{0, 3, 0, 13, 0, 3, 9, 0})
	sys := validRunSystem(f)
	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		r := ringOf(filepath.Join(dir, "run.ckpt"))
		var held *os.File
		defer func() {
			if held != nil {
				held.Close()
			}
		}()
		top, prev := int64(-1), int64(-1) // the steps at path and path.prev
		pending := int64(-1)              // the held old path of a rotation stopped at step 3
		step := int64(0)
		for i, b := range ops[:min(len(ops), 24)] {
			op, arg := b%4, int(b/4)
			switch op {
			case 0, 1:
				if pending >= 0 {
					prev, pending = pending, -1 // the next write finishes the rotation
				}
				step++
				stop := swapSteps
				if op == 1 {
					stop = arg % swapSteps
				}
				// The manifest's length follows arg, so the spare shrinks and grows.
				cp := &Checkpoint{Step: step, Extra: make([]float64, arg%5), Sys: sys}
				if err := writeCheckpointRing(r.path, cp, stop); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				switch {
				case stop == swapSteps || stop == 4:
					if top >= 0 {
						prev = top
					}
					top = step
				case stop == 3:
					if top >= 0 {
						pending = top
					}
					top = step
				}
			case 3:
				if held != nil {
					held.Close()
					held = nil
				} else if top >= 0 {
					var err error
					if held, err = openShared(r.path); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			_, cp, err := NewestValidCheckpoint([]string{r.path, r.prev})
			if got := stepOf(cp); got != top {
				t.Fatalf("op %d (%d): newest valid step %d (err %v), want %d", i, b, got, err, top)
			}
			cp, err = ReadCheckpointFile(r.prev)
			if got := stepOf(cp); got != prev {
				t.Fatalf("op %d (%d): path.prev holds step %d (err %v), want %d", i, b, got, err, prev)
			}
			var fi []os.FileInfo
			for _, name := range []string{r.path, r.prev, r.spare} {
				if st, err := os.Stat(name); err == nil {
					for _, other := range fi {
						if os.SameFile(st, other) {
							t.Fatalf("op %d (%d): %s shares an inode with another ring name", i, b, filepath.Base(name))
						}
					}
					fi = append(fi, st)
				}
			}
			if op == 0 {
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if name := filepath.Join(dir, e.Name()); name != r.path && name != r.prev && name != r.spare {
						t.Fatalf("op %d: %s left beside the ring after a completed write", i, e.Name())
					}
				}
			}
		}
	})
}
