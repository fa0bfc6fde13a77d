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
// Checkpoint files live in a ring of three inodes per path, named path
// (the newest snapshot), path.prev (the one before) and a hidden spare
// (.<base>.spare). A write overwrites the spare in place, fsyncs it and
// rotates the three names with link and rename only, so no inode loses
// its last name in steady state. That is the point: on ext4 with online
// discard, unlinking the file a temp-file-and-rename write replaced cost
// 38.7 ms of wall time (0.13 ms of CPU) whatever its size, while the
// create, write and fsync together cost 0.4 ms and an in-place overwrite
// plus fsync 0.12 ms (PERFORMANCE.md, "checkpoint files recycle their
// blocks"). After every step of the rotation path and path.prev are
// complete, fsynced checkpoints, so a crash mid-write leaves the previous
// snapshot intact; a reader decodes under a shared flock, which the
// writer's try-lock on the spare respects, so it never sees a partial or
// recycled file.
package mlmdio

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

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

// WriteCheckpointFile writes cp to path and keeps the snapshot path held
// before at path.prev. The bytes overwrite the ring's spare inode in place
// and are fsynced; the spare is then renamed over path, the old path to
// path.prev and the old path.prev to the spare, so the replaced files are
// recycled instead of freed. After every step of that rotation, and so
// after a crash at any point, path and path.prev are complete checkpoints.
// A spare that a reader still holds is left to the reader and a fresh
// inode takes its place. Writers of one directory are serialized by an
// exclusive flock on the directory, across goroutines and processes.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	return writeCheckpointRing(path, cp, swapSteps)
}

// swapSteps is the number of link/rename steps of ring.swap.
const swapSteps = 5

// writeCheckpointRing is WriteCheckpointFile stopped after the first stop
// steps of the rotation, as a crash would stop it.
func writeCheckpointRing(path string, cp *Checkpoint, stop int) error {
	r := ringOf(path)
	dir, err := flockOpen(filepath.Dir(path), syscall.LOCK_EX)
	if err != nil {
		return fmt.Errorf("mlmdio: checkpoint directory: %w", err)
	}
	defer dir.Close()
	if err := r.settle(); err != nil {
		return fmt.Errorf("mlmdio: checkpoint ring: %w", err)
	}
	f, err := r.openSpare()
	if err != nil {
		return fmt.Errorf("mlmdio: checkpoint spare: %w", err)
	}
	// The spare stays locked until it is path: closing releases the lock.
	err = SaveCheckpoint(f, cp)
	if err == nil {
		if err = truncateSync(f); err != nil {
			err = fmt.Errorf("mlmdio: checkpoint spare: %w", err)
		}
	}
	if err == nil {
		if err = r.swap(stop); err != nil {
			err = fmt.Errorf("mlmdio: checkpoint ring: %w", err)
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("mlmdio: checkpoint spare: %w", cerr)
	}
	return err
}

// ring names the files of one checkpoint path: the three names its inodes
// cycle through, and the two hold names that keep path's and path.prev's
// inodes linked while the rotation renames over them.
type ring struct {
	path, prev, spare string
	holdCur, holdPrev string
}

func ringOf(path string) ring {
	hidden := filepath.Join(filepath.Dir(path), "."+filepath.Base(path))
	return ring{
		path: path, prev: path + ".prev", spare: hidden + ".spare",
		holdCur: hidden + ".hold", holdPrev: hidden + ".prev.hold",
	}
}

// openSpare opens the spare for an in-place overwrite under an exclusive
// flock, creating it on the first writes. If a reader still holds the
// spare's inode under its shared lock (the inode was path or path.prev
// when the reader opened it), the name is unlinked — the reader keeps its
// inode until it closes — and a fresh inode is created in its place.
func (r ring) openSpare() (*os.File, error) {
	f, err := os.OpenFile(r.spare, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, err
	}
	err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		f.Close()
		if err := os.Remove(r.spare); err != nil {
			return nil, err
		}
		if f, err = os.OpenFile(r.spare, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600); err != nil {
			return nil, err
		}
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// truncateSync cuts a spare that held a longer checkpoint to the bytes
// just written and fsyncs it.
func truncateSync(f *os.File) error {
	n, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() > n {
		if err := f.Truncate(n); err != nil {
			return err
		}
	}
	return f.Sync()
}

// swap runs the first stop steps of the rotation: link path and path.prev
// to their hold names, rename the spare over path, the held old path over
// path.prev and the held old path.prev to the spare name. Every inode
// keeps a name throughout, so no step frees a block. Before the first
// write path does not exist and the rotation is the one rename; before the
// second path.prev does not exist and the last step has nothing to move.
func (r ring) swap(stop int) error {
	var hasCur, hasPrev bool
	for k := 0; k < stop; k++ {
		var err error
		switch k {
		case 0:
			err = os.Link(r.path, r.holdCur)
			hasCur = err == nil
		case 1:
			if hasCur {
				err = os.Link(r.prev, r.holdPrev)
				hasPrev = err == nil
			}
		case 2:
			err = os.Rename(r.spare, r.path)
		case 3:
			if hasCur {
				err = os.Rename(r.holdCur, r.prev)
			}
		case 4:
			if hasPrev {
				err = os.Rename(r.holdPrev, r.spare)
			}
		}
		// A missing path (first write) or path.prev (second) links nothing.
		if err != nil && !(k < 2 && errors.Is(err, fs.ErrNotExist)) {
			return err
		}
	}
	return nil
}

// settle finishes or undoes a rotation that a crash (or a failed rename)
// interrupted, so that each inode is again under exactly one of path,
// path.prev and the spare name and no hold name is left. A hold of path
// that is still path's inode means the spare never took path: the hold
// names are extra links and are dropped, path.prev's first (a lone
// path.prev hold would read as the state below). Otherwise the spare took
// path and the rotation is finished: the held old path becomes path.prev,
// the held old path.prev the spare.
func (r ring) settle() error {
	cur, err := os.Stat(r.holdCur)
	switch {
	case err == nil:
		if p, perr := os.Stat(r.path); perr == nil && os.SameFile(cur, p) {
			if err := os.Remove(r.holdPrev); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			return os.Remove(r.holdCur)
		}
		if err := os.Rename(r.holdCur, r.prev); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	err = os.Rename(r.holdPrev, r.spare)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// flockOpen opens name read-only and takes the flock how on it; closing
// the file releases the lock.
func flockOpen(name string, how int) (*os.File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), how); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// ReadCheckpointFile loads the checkpoint at path, decoding under a shared
// flock on the file (openShared), so a writer never recycles the inode
// while it is read.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := openShared(path)
	if err != nil {
		return nil, fmt.Errorf("mlmdio: checkpoint: %w", err)
	}
	defer f.Close()
	return LoadCheckpoint(f)
}

// openShared opens path under a shared flock, once the locked inode is
// still the one named path: an inode rotated away between the open and
// the lock may be a spare that a writer has since rewritten, so the open
// is retried. Each retry needs a rotation to finish in between.
func openShared(path string) (*os.File, error) {
	for {
		f, err := flockOpen(path, syscall.LOCK_SH)
		if err != nil {
			return nil, err
		}
		held, err := f.Stat()
		if err == nil {
			var named os.FileInfo
			if named, err = os.Stat(path); err == nil && os.SameFile(held, named) {
				return f, nil
			}
		}
		f.Close()
		if err != nil {
			return nil, err
		}
	}
}
