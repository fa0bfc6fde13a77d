// Package mlmdio provides the serialization layer of the library: XYZ
// trajectory output for visualization, and binary checkpoints, so long
// multiscale runs can stop and resume. MD systems are written in a fixed
// little-endian layout (system.go), which is also the payload of a run
// checkpoint; encoding/gob serves only trained neural-network models, wave
// fields and the run checkpoint's manifest.
package mlmdio

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mlmd/internal/allegro"
	"mlmd/internal/grid"
	"mlmd/internal/md"
	"mlmd/internal/nn"
	"mlmd/internal/units"
)

// SpeciesNames maps type indices to element symbols for XYZ output.
// Defaults to the PbTiO3 convention; override per call as needed.
var SpeciesNames = []string{"Pb", "Ti", "O"}

// WriteXYZ appends one frame of sys to w in extended-XYZ format (positions
// in Angstrom, lattice in the comment line).
func WriteXYZ(w io.Writer, sys *md.System, comment string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", sys.N)
	fmt.Fprintf(bw, "Lattice=\"%.6f 0 0 0 %.6f 0 0 0 %.6f\" %s\n",
		units.Angstrom(sys.Lx), units.Angstrom(sys.Ly), units.Angstrom(sys.Lz), comment)
	for i := 0; i < sys.N; i++ {
		name := "X"
		if sys.Type[i] < len(SpeciesNames) {
			name = SpeciesNames[sys.Type[i]]
		}
		fmt.Fprintf(bw, "%-2s %14.8f %14.8f %14.8f\n", name,
			units.Angstrom(sys.X[3*i]), units.Angstrom(sys.X[3*i+1]), units.Angstrom(sys.X[3*i+2]))
	}
	return bw.Flush()
}

// ReadXYZ parses one XYZ frame, returning element names and positions in
// Bohr. It does not reconstruct the full System (masses and velocities are
// not part of XYZ).
func ReadXYZ(r io.Reader) (names []string, xyz []float64, err error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("mlmdio: empty XYZ stream")
	}
	n, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
	if err != nil || n < 1 {
		return nil, nil, fmt.Errorf("mlmdio: bad atom count %q", sc.Text())
	}
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("mlmdio: missing comment line")
	}
	// Grow incrementally rather than trusting the declared count: a frame
	// claiming 10^12 atoms but carrying three lines must fail with a
	// truncation error, not attempt a terabyte allocation (the fuzz
	// harness exercises exactly this).
	names = make([]string, 0, min(n, 4096))
	xyz = make([]float64, 0, 3*min(n, 4096))
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			return nil, nil, fmt.Errorf("mlmdio: truncated frame at atom %d", i)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 {
			return nil, nil, fmt.Errorf("mlmdio: short atom line %q", sc.Text())
		}
		names = append(names, fields[0])
		for d := 0; d < 3; d++ {
			v, err := strconv.ParseFloat(fields[d+1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("mlmdio: bad coordinate %q: %w", fields[d+1], err)
			}
			xyz = append(xyz, units.Bohr(v))
		}
	}
	return names, xyz, nil
}

// fieldCheckpoint is the gob image of a WaveField.
type fieldCheckpoint struct {
	Nx, Ny, Nz int
	Hx, Hy, Hz float64
	Norb       int
	Layout     int
	Data       []complex128
}

// SaveWaveField writes a binary checkpoint of w.
func SaveWaveField(wr io.Writer, w *grid.WaveField) error {
	return gob.NewEncoder(wr).Encode(fieldCheckpoint{
		Nx: w.G.Nx, Ny: w.G.Ny, Nz: w.G.Nz,
		Hx: w.G.Hx, Hy: w.G.Hy, Hz: w.G.Hz,
		Norb: w.Norb, Layout: int(w.Layout), Data: w.Data,
	})
}

// LoadWaveField reconstructs a WaveField from a checkpoint, validating the
// declared shape against the stored data before allocating from it.
func LoadWaveField(r io.Reader) (*grid.WaveField, error) {
	var cp fieldCheckpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("mlmdio: %w", err)
	}
	// grid.New requires >= 2 points per axis and positive spacings (it
	// panics otherwise — validate here so a corrupt stream errors). The
	// axis caps also keep the product comfortably inside int range.
	const maxAxis, maxOrb = 1 << 12, 1 << 16
	if cp.Nx < 2 || cp.Nx > maxAxis || cp.Ny < 2 || cp.Ny > maxAxis || cp.Nz < 2 || cp.Nz > maxAxis ||
		cp.Norb < 1 || cp.Norb > maxOrb || !(cp.Hx > 0) || !(cp.Hy > 0) || !(cp.Hz > 0) ||
		len(cp.Data) != cp.Nx*cp.Ny*cp.Nz*cp.Norb {
		return nil, fmt.Errorf("mlmdio: inconsistent wave-field checkpoint (%dx%dx%d h=%g,%g,%g, %d orbitals, %d samples)",
			cp.Nx, cp.Ny, cp.Nz, cp.Hx, cp.Hy, cp.Hz, cp.Norb, len(cp.Data))
	}
	g := grid.New(cp.Nx, cp.Ny, cp.Nz, cp.Hx, cp.Hy, cp.Hz)
	w := grid.NewWaveField(g, cp.Norb, grid.Layout(cp.Layout))
	copy(w.Data, cp.Data)
	return w, nil
}

// modelCheckpoint is the gob image of an allegro.Model.
type modelCheckpoint struct {
	Cutoff          float64
	NRadial         int
	NSpecies        int
	Hidden          []int
	Act             int
	Weights         [][]float64
	Biases          [][]float64
	PerSpeciesShift []float64
	BlockSize       int
}

// SaveModel writes a binary checkpoint of a trained force field.
func SaveModel(w io.Writer, m *allegro.Model) error {
	cp := modelCheckpoint{
		Cutoff:          m.Spec.Cutoff,
		NRadial:         m.Spec.NRadial,
		NSpecies:        m.Spec.NSpecies,
		PerSpeciesShift: m.PerSpeciesShift,
		BlockSize:       m.BlockSize,
	}
	// All nets share an architecture; record it from the first.
	sizes := m.Nets[0].Sizes
	cp.Hidden = append([]int(nil), sizes[1:len(sizes)-1]...)
	cp.Act = int(m.Nets[0].Act)
	for _, net := range m.Nets {
		cp.Weights = append(cp.Weights, net.Params(nil))
		cp.Biases = append(cp.Biases, nil) // params carry biases already
	}
	return gob.NewEncoder(w).Encode(cp)
}

// Architecture sanity caps for LoadModel. A hostile checkpoint can claim an
// enormous architecture in a few bytes; every count-derived allocation is
// gated on these caps plus an exact match between the declared shape and
// the parameter payload actually present in the stream, so the decode can
// never allocate much more than it read.
const (
	maxModelSpecies = 256
	maxModelRadial  = 4096
	maxModelLayers  = 64
	maxModelWidth   = 1 << 16
)

// LoadModel reconstructs a trained force field.
func LoadModel(r io.Reader) (*allegro.Model, error) {
	var cp modelCheckpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("mlmdio: %w", err)
	}
	if cp.NSpecies < 1 || cp.NSpecies > maxModelSpecies || cp.NRadial < 1 || cp.NRadial > maxModelRadial {
		return nil, fmt.Errorf("mlmdio: implausible model shape (%d species, %d radial)", cp.NSpecies, cp.NRadial)
	}
	if len(cp.Hidden) > maxModelLayers {
		return nil, fmt.Errorf("mlmdio: implausible depth %d", len(cp.Hidden))
	}
	spec := allegro.DescriptorSpec{Cutoff: cp.Cutoff, NRadial: cp.NRadial, NSpecies: cp.NSpecies}
	sizes := append([]int{spec.Dim()}, cp.Hidden...)
	sizes = append(sizes, 1)
	wantParams := 0
	for l := 0; l < len(sizes)-1; l++ {
		if sizes[l] < 1 || sizes[l] > maxModelWidth {
			return nil, fmt.Errorf("mlmdio: implausible layer width %d", sizes[l])
		}
		wantParams += sizes[l]*sizes[l+1] + sizes[l+1]
	}
	if len(cp.Weights) != cp.NSpecies {
		return nil, fmt.Errorf("mlmdio: checkpoint has %d nets, model needs %d", len(cp.Weights), cp.NSpecies)
	}
	for sp, w := range cp.Weights {
		if len(w) != wantParams {
			return nil, fmt.Errorf("mlmdio: net %d carries %d parameters, architecture needs %d", sp, len(w), wantParams)
		}
	}
	if len(cp.PerSpeciesShift) != cp.NSpecies {
		return nil, fmt.Errorf("mlmdio: %d per-species shifts for %d species", len(cp.PerSpeciesShift), cp.NSpecies)
	}
	m, err := allegro.NewModel(spec, cp.Hidden, 0)
	if err != nil {
		return nil, err
	}
	for sp, net := range m.Nets {
		net.Act = nn.Activation(cp.Act)
		net.SetParams(cp.Weights[sp])
	}
	copy(m.PerSpeciesShift, cp.PerSpeciesShift)
	m.BlockSize = cp.BlockSize
	return m, nil
}
