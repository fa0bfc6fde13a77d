// Package mlmdio provides the serialization layer of the library: XYZ
// trajectory output for visualization, and binary checkpoints, so long
// multiscale runs can stop and resume. MD systems are written in a fixed
// little-endian layout (system.go), which is also the payload of a run
// checkpoint; encoding/gob serves only the run checkpoint's manifest.
package mlmdio

import (
	"bufio"
	"fmt"
	"io"

	"mlmd/internal/md"
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
