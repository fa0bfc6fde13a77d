// The system payload: a fixed little-endian image of an md.System, the one
// system codec of the package (SaveSystem/LoadSystem, and the payload a run
// checkpoint checksums). Layout, all integers and float bits little-endian:
//
//	offset  size  field
//	0       8     magic "mlmdsys1"
//	8       8     N (u64)
//	16      24    Lx, Ly, Lz (Float64bits)
//	40      24N   X   (3N Float64bits)
//	        24N   V   (3N Float64bits)
//	        24N   F   (3N Float64bits)
//	        8N    Mass (N Float64bits)
//	        4N    Type (N u32)
//
// Every value is stored as its raw bits, so NaN payloads, signed zeros,
// infinities and subnormals round-trip exactly. The length of the whole
// payload follows from N alone, which is what lets a decoder check the
// body against N before allocating a system.
package mlmdio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"mlmd/internal/md"
)

const (
	// systemMagic opens every system payload.
	systemMagic = "mlmdsys1"
	// systemHeaderLen is the magic, N and the three box lengths.
	systemHeaderLen = 8 + 8 + 3*8
	// systemAtomLen is the body bytes per atom: X, V, F (3 words each),
	// Mass (one word) and Type (u32).
	systemAtomLen = 3*3*8 + 8 + 4
	// maxSystemAtoms caps the atom count a payload may declare (a 2.8 GB
	// body), so the body length fits the checkpoint payload cap.
	maxSystemAtoms = 1 << 25
)

// encodeBuf is the scratch of one SaveSystem or SaveCheckpoint: the system
// payload and, for a checkpoint, its encoded manifest.
type encodeBuf struct {
	payload  []byte
	manifest bytes.Buffer
}

// encodePool retains encodeBufs between writes, so a warm SaveSystem or
// SaveCheckpoint allocates nothing proportional to N.
var encodePool = sync.Pool{New: func() any { return new(encodeBuf) }}

// systemPayloadLen is the payload length of an n-atom system.
func systemPayloadLen(n int) int64 { return systemHeaderLen + systemAtomLen*int64(n) }

// appendSystem appends sys's payload to b in one pass. It fails, leaving
// b's contents past its old length undefined, when sys is not a
// well-formed system of 1..maxSystemAtoms atoms or a Type lies outside
// [0, 2³²).
func appendSystem(b []byte, sys *md.System) ([]byte, error) {
	n := sys.N
	if n < 1 || n > maxSystemAtoms {
		return b, fmt.Errorf("mlmdio: cannot encode a system of %d atoms (1..%d)", n, maxSystemAtoms)
	}
	if len(sys.X) != 3*n || len(sys.V) != 3*n || len(sys.F) != 3*n || len(sys.Mass) != n || len(sys.Type) != n {
		return b, fmt.Errorf("mlmdio: inconsistent system (N=%d, |X|=%d, |V|=%d, |F|=%d, |Mass|=%d, |Type|=%d)",
			n, len(sys.X), len(sys.V), len(sys.F), len(sys.Mass), len(sys.Type))
	}
	start := len(b)
	b = slices.Grow(b, int(systemPayloadLen(n)))[:start+int(systemPayloadLen(n))]
	p := b[start:]
	le := binary.LittleEndian
	copy(p, systemMagic)
	le.PutUint64(p[8:], uint64(n))
	le.PutUint64(p[16:], math.Float64bits(sys.Lx))
	le.PutUint64(p[24:], math.Float64bits(sys.Ly))
	le.PutUint64(p[32:], math.Float64bits(sys.Lz))
	p = p[systemHeaderLen:]
	// Advancing p by one word per store lets the compiler keep a single
	// bounds check per element.
	for _, v := range [...][]float64{sys.X, sys.V, sys.F, sys.Mass} {
		for _, x := range v {
			le.PutUint64(p, math.Float64bits(x))
			p = p[8:]
		}
	}
	for i, t := range sys.Type {
		if uint64(t) > math.MaxUint32 {
			return b, fmt.Errorf("mlmdio: atom %d has type %d outside [0, 2^32)", i, t)
		}
		le.PutUint32(p, uint32(t))
		p = p[4:]
	}
	return b, nil
}

// systemHeader is a parsed, validated payload header.
type systemHeader struct {
	n          int
	lx, ly, lz float64
}

// parseSystemHeader checks the magic, the atom count against
// maxSystemAtoms and the box lengths of the first systemHeaderLen bytes
// of h.
func parseSystemHeader(h []byte) (systemHeader, error) {
	if len(h) < systemHeaderLen {
		return systemHeader{}, fmt.Errorf("mlmdio: truncated system header (%d of %d bytes)", len(h), systemHeaderLen)
	}
	if string(h[:8]) != systemMagic {
		return systemHeader{}, fmt.Errorf("mlmdio: not a system payload (magic %q)", h[:8])
	}
	le := binary.LittleEndian
	n := le.Uint64(h[8:])
	if n < 1 || n > maxSystemAtoms {
		return systemHeader{}, fmt.Errorf("mlmdio: implausible system atom count %d", n)
	}
	hd := systemHeader{
		n:  int(n),
		lx: math.Float64frombits(le.Uint64(h[16:])),
		ly: math.Float64frombits(le.Uint64(h[24:])),
		lz: math.Float64frombits(le.Uint64(h[32:])),
	}
	if !(hd.lx > 0) || !(hd.ly > 0) || !(hd.lz > 0) {
		return systemHeader{}, fmt.Errorf("mlmdio: system box %g x %g x %g is not positive", hd.lx, hd.ly, hd.lz)
	}
	return hd, nil
}

// decode builds the system from body, which must be exactly the body
// length the header declares.
func (hd systemHeader) decode(body []byte) (*md.System, error) {
	if want := systemPayloadLen(hd.n) - systemHeaderLen; int64(len(body)) != want {
		return nil, fmt.Errorf("mlmdio: system body of %d bytes, %d atoms need %d", len(body), hd.n, want)
	}
	sys, err := md.NewSystem(hd.n, hd.lx, hd.ly, hd.lz)
	if err != nil {
		return nil, fmt.Errorf("mlmdio: %w", err)
	}
	le := binary.LittleEndian
	for _, v := range [...][]float64{sys.X, sys.V, sys.F, sys.Mass} {
		for i := range v {
			v[i] = math.Float64frombits(le.Uint64(body))
			body = body[8:]
		}
	}
	for i := range sys.Type {
		t := le.Uint32(body)
		body = body[4:]
		if uint64(t) > math.MaxInt { // only where int is 32 bits
			return nil, fmt.Errorf("mlmdio: atom %d type %d overflows int", i, t)
		}
		sys.Type[i] = int(t)
	}
	return sys, nil
}

// decodeSystem rebuilds a system from one whole payload.
func decodeSystem(p []byte) (*md.System, error) {
	hd, err := parseSystemHeader(p)
	if err != nil {
		return nil, err
	}
	return hd.decode(p[systemHeaderLen:])
}

// SaveSystem writes the fixed little-endian payload of sys (see the layout
// above) to w. It returns an error, writing nothing, when the slice lengths
// disagree with sys.N or a Type lies outside [0, 2³²).
func SaveSystem(w io.Writer, sys *md.System) error {
	eb := encodePool.Get().(*encodeBuf)
	defer encodePool.Put(eb)
	b, err := appendSystem(eb.payload[:0], sys)
	eb.payload = b[:0]
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// LoadSystem reads one system payload from r. It checks the magic and
// bounds the declared atom count before reading the body, and reads the
// body in bounded chunks, so a forged count fails after reading only what
// arrived and before md.NewSystem allocates anything.
func LoadSystem(r io.Reader) (*md.System, error) {
	var h [systemHeaderLen]byte
	if k, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("mlmdio: truncated system header (%d of %d bytes): %w", k, systemHeaderLen, err)
	}
	hd, err := parseSystemHeader(h[:])
	if err != nil {
		return nil, err
	}
	want := systemPayloadLen(hd.n) - systemHeaderLen
	body, err := readBounded(r, want)
	if err != nil {
		return nil, fmt.Errorf("mlmdio: truncated system body (%d of %d bytes): %w", len(body), want, err)
	}
	return hd.decode(body)
}

// readBounded reads exactly n bytes from r, requesting at most
// checkpointReadChunk at a time, so a forged length costs at most one
// chunk of allocation beyond the bytes actually present. On a short read
// it returns what arrived with the error.
func readBounded(r io.Reader, n int64) ([]byte, error) {
	buf := make([]byte, 0, min(n, checkpointReadChunk))
	for int64(len(buf)) < n {
		have := len(buf)
		want := int(min(n-int64(have), checkpointReadChunk))
		buf = slices.Grow(buf, want)[:have+want]
		k, err := io.ReadFull(r, buf[have:])
		buf = buf[:have+k]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
