// Run checkpoints (ISSUE 6): a restartable snapshot of a long MD run,
// written as a small gob manifest (step counter, integrator/thermostat
// parameters, domain-grid shape and cut planes, driver extras, payload
// length + checksum) followed by the fixed little-endian system payload
// (system.go) the manifest checksums. gob encodes only the manifest; the
// system is encoded in one pass into a pooled buffer. The two-part layout
// lets LoadCheckpoint validate everything it is about to trust — the
// manifest's declared sizes before any size-derived allocation, the payload
// bytes against the checksum before the system decoder sees them — so a
// truncated or corrupted file fails with a descriptive error instead of
// resuming a subtly wrong trajectory (fuzzed in fuzz_test.go).
//
// The payload checksum is 64 bits: CRC-32C in the high word and
// CRC-32/IEEE in the low word, both computed in hardware by hash/crc32 on
// amd64 and arm64. Two CRCs over different polynomials give 64 check bits
// where one CRC-32C would give 32; together they cost about a seventh of a
// table-driven CRC-64.
//
// Checkpoint files are written atomically (temp file in the target
// directory, fsync, rename), so a crash mid-write leaves the previous
// checkpoint intact and a reader never observes a partial file.
package mlmdio

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"mlmd/internal/md"
)

// CheckpointVersion is the current checkpoint layout version; files
// carrying any other version are rejected, among them version 1 (a gob
// system payload under a CRC-64/ECMA).
const CheckpointVersion = 2

// Checkpoint sanity caps: a hostile manifest can declare enormous shapes in
// a few bytes, so every count-derived allocation is gated here first.
const (
	// maxCheckpointAxis caps the per-axis cut-plane count (grid axes are
	// u16 on the wire; 1<<12 ranks per axis is far beyond any real run).
	maxCheckpointAxis = 1 << 12
	// maxCheckpointExtra caps the driver-extra vector (per-cell excitation
	// fields and scalar state; generously sized).
	maxCheckpointExtra = 1 << 24
	// maxCheckpointPayload caps the system payload (bytes).
	maxCheckpointPayload = 1 << 32
	// checkpointReadChunk bounds how many payload bytes are requested at
	// once, so a forged length fails after reading only what arrived.
	checkpointReadChunk = 1 << 16
)

// castagnoli is the CRC-32C table of the payload checksum's high word.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloadCRC is the 64-bit payload checksum: CRC-32C ‖ CRC-32/IEEE.
func payloadCRC(p []byte) uint64 {
	return uint64(crc32.Checksum(p, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(p))
}

// Checkpoint is one restartable snapshot of a sharded MD run. Step, the
// integrator parameters and the driver Extra vector let the resuming
// driver continue exactly where the run stopped; Grid and Cuts record the
// decomposition the checkpoint was written on (informational — a resume
// may choose any grid shape, because the gathered system is
// decomposition-free and forces are decomposition-invariant).
type Checkpoint struct {
	// Step counts completed MD steps at the snapshot.
	Step int64
	// Time is the driver's simulation clock at the snapshot (0 when the
	// driver keeps none).
	Time float64
	// Dt, KT and Tau are the integrator step and Berendsen thermostat
	// parameters of the interrupted run (the thermostat is stateless
	// beyond the velocities, so the parameters are its whole state).
	Dt, KT, Tau float64
	// Grid is the domain-grid shape the writing run used.
	Grid [3]int
	// Cuts are the (possibly balanced) cut-plane positions per axis at the
	// snapshot.
	Cuts [3][]float64
	// Extra carries driver-specific scalar state (e.g. the per-cell
	// excitation field and lattice clock of the XS-NNQMD demo).
	Extra []float64
	// Loads is the last AllGathered per-rank cost profile of the writing
	// run, in rank order on Grid (empty when the balancer never gathered
	// one). A shrink-and-resume uses it to seed the new layout's cut planes
	// from measured load instead of resetting to uniform cuts.
	Loads []float64
	// Sys is the gathered global system (positions, velocities, forces,
	// masses, types — the complete integration state).
	Sys *md.System
}

// checkpointManifest is the gob image of everything but the system, plus
// the payload envelope the loader validates before decoding the system.
type checkpointManifest struct {
	Version     int
	Step        int64
	Time        float64
	Dt, KT, Tau float64
	Grid        [3]int
	Cuts        [3][]float64
	Extra       []float64
	// Loads was added in PR 8; gob tolerates its absence in older files
	// (and its presence under older readers).
	Loads      []float64
	PayloadLen int64
	// PayloadCRC is payloadCRC of the payload bytes.
	PayloadCRC uint64
}

// SaveCheckpoint writes cp to w (manifest, then the checksummed system
// payload) in two writes. The payload and manifest are encoded into a
// pooled buffer, so a warm call allocates nothing proportional to the atom
// count; it is safe for concurrent use.
func SaveCheckpoint(w io.Writer, cp *Checkpoint) error {
	if cp == nil || cp.Sys == nil {
		return fmt.Errorf("mlmdio: checkpoint without a system")
	}
	eb := encodePool.Get().(*encodeBuf)
	defer encodePool.Put(eb)
	payload, err := appendSystem(eb.payload[:0], cp.Sys)
	eb.payload = payload[:0]
	if err != nil {
		return fmt.Errorf("mlmdio: checkpoint payload: %w", err)
	}
	m := checkpointManifest{
		Version: CheckpointVersion,
		Step:    cp.Step, Time: cp.Time,
		Dt: cp.Dt, KT: cp.KT, Tau: cp.Tau,
		Grid: cp.Grid, Cuts: cp.Cuts, Extra: cp.Extra, Loads: cp.Loads,
		PayloadLen: int64(len(payload)),
		PayloadCRC: payloadCRC(payload),
	}
	eb.manifest.Reset()
	if err := gob.NewEncoder(&eb.manifest).Encode(m); err != nil {
		return fmt.Errorf("mlmdio: checkpoint manifest: %w", err)
	}
	if _, err := w.Write(eb.manifest.Bytes()); err != nil {
		return fmt.Errorf("mlmdio: checkpoint manifest: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("mlmdio: checkpoint payload: %w", err)
	}
	return nil
}

// LoadCheckpoint reads one checkpoint from r, validating the manifest's
// declared sizes before any size-derived allocation and the payload bytes
// against the manifest checksum before decoding the system from them.
// Truncated and corrupted files fail with descriptive errors.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	// One shared buffered reader for manifest and payload: gob wraps any
	// non-ByteReader source in its own bufio and would over-read into the
	// payload region, losing bytes between the two decode stages.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var m checkpointManifest
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("mlmdio: checkpoint manifest: %w", err)
	}
	if m.Version != CheckpointVersion {
		return nil, fmt.Errorf("mlmdio: checkpoint version %d, want %d", m.Version, CheckpointVersion)
	}
	if m.Step < 0 {
		return nil, fmt.Errorf("mlmdio: checkpoint at negative step %d", m.Step)
	}
	for a := 0; a < 3; a++ {
		if m.Grid[a] < 0 || m.Grid[a] > maxCheckpointAxis || len(m.Cuts[a]) > maxCheckpointAxis+1 {
			return nil, fmt.Errorf("mlmdio: implausible checkpoint grid axis %d (P=%d, %d cut planes)",
				a, m.Grid[a], len(m.Cuts[a]))
		}
		if m.Grid[a] > 0 && len(m.Cuts[a]) != 0 && len(m.Cuts[a]) != m.Grid[a]+1 {
			return nil, fmt.Errorf("mlmdio: checkpoint axis %d has %d cut planes for %d subdomains",
				a, len(m.Cuts[a]), m.Grid[a])
		}
	}
	if len(m.Extra) > maxCheckpointExtra {
		return nil, fmt.Errorf("mlmdio: implausible checkpoint extra length %d", len(m.Extra))
	}
	if len(m.Loads) > maxCheckpointAxis*maxCheckpointAxis {
		return nil, fmt.Errorf("mlmdio: implausible checkpoint load profile length %d", len(m.Loads))
	}
	if m.PayloadLen < 1 || m.PayloadLen > maxCheckpointPayload {
		return nil, fmt.Errorf("mlmdio: implausible checkpoint payload length %d", m.PayloadLen)
	}
	payload, err := readBounded(r, m.PayloadLen)
	if err != nil {
		return nil, fmt.Errorf("mlmdio: truncated checkpoint payload (%d of %d bytes): %w",
			len(payload), m.PayloadLen, err)
	}
	if crc := payloadCRC(payload); crc != m.PayloadCRC {
		return nil, fmt.Errorf("mlmdio: checkpoint payload checksum %#x, manifest says %#x (file corrupted?)",
			crc, m.PayloadCRC)
	}
	sys, err := decodeSystem(payload)
	if err != nil {
		return nil, fmt.Errorf("mlmdio: checkpoint system: %w", err)
	}
	return &Checkpoint{
		Step: m.Step, Time: m.Time,
		Dt: m.Dt, KT: m.KT, Tau: m.Tau,
		Grid: m.Grid, Cuts: m.Cuts, Extra: m.Extra, Loads: m.Loads,
		Sys: sys,
	}, nil
}

// WriteCheckpointFile writes cp to path atomically: the bytes go to a temp
// file in path's directory, are fsynced, and the temp file is renamed over
// path before it returns — so an interrupted write leaves the previous
// checkpoint intact and a concurrent reader never sees a partial file.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("mlmdio: checkpoint temp file: %w", err)
	}
	err = SaveCheckpoint(f, cp)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// ReadCheckpointFile loads the checkpoint at path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mlmdio: checkpoint: %w", err)
	}
	defer f.Close()
	return LoadCheckpoint(f)
}
