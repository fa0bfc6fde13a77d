package shard

import (
	"fmt"
	"math"

	"mlmd/internal/cluster"
	"mlmd/internal/maxwell"
	"mlmd/internal/shard/halo"
	"mlmd/internal/tddft"
)

// The ghost contract of the identity oracle, in both directions. A poison
// row proves that nothing reads a ghost its step did not refresh: every
// ghost of every field is NaN before each step, so only what the step's
// refreshes write is finite, and a stale read turns an owned cell NaN.
// A perturbed row proves that nothing is sent that is not read: one float
// of every received frame is moved by 1e-13, and the row must leave its
// reference's bits.

// poisonedWork is a grid workload whose ghost cells are all NaN before
// each Step.
type poisonedWork struct {
	GridWorkload
	fields []*halo.GridField
}

// poisonGhosts wraps w, whose fields it must know.
func poisonGhosts(w GridWorkload) (GridWorkload, error) {
	p := &poisonedWork{GridWorkload: w}
	switch w := w.(type) {
	case *maxwell.Sim3D:
		p.fields = []*halo.GridField{w.E, w.B}
	case *tddft.ShardProp:
		p.fields = []*halo.GridField{&w.W.GridField}
	default:
		return nil, fmt.Errorf("poison: the fields of a %T are unknown", w)
	}
	return p, nil
}

// Step fills every ghost with NaN, then steps.
func (p *poisonedWork) Step(ex *halo.Exchanger) {
	nan := math.NaN()
	for _, f := range p.fields {
		g, own := f.D.Ghost, f.D.Own
		for x := 0; x < f.Ext[0]; x++ {
			for y := 0; y < f.Ext[1]; y++ {
				for z := 0; z < f.Ext[2]; z++ {
					if x >= g && x < g+own[0] && y >= g && y < g+own[1] && z >= g && z < g+own[2] {
						continue
					}
					i := f.Index(x, y, z)
					for c := range f.C {
						f.Data[i+c] = nan
					}
				}
			}
		}
	}
	p.GridWorkload.Step(ex)
}

// skinAuxPoison is a two-phase force field whose ghost payloads are NaN,
// when phase two assembles the boundary atoms' forces, for every ghost
// farther than the cutoff from every owned atom: the skin shell of the
// halo. A row that keeps its bits under it reads no skin-shell payload.
type skinAuxPoison struct{ TwoPhaseFF }

// poisonSkinAux wraps ff if it is a two-phase field.
func poisonSkinAux(ff RankFF) RankFF {
	if two, ok := ff.(TwoPhaseFF); ok {
		return skinAuxPoison{two}
	}
	return ff
}

// PhaseTwo poisons the skin shell's payloads once the payload exchange has
// landed (the call on the boundary atoms), then assembles.
func (p skinAuxPoison) PhaseTwo(v *View, aux []float64, lo, hi int) {
	if lo == v.NInt {
		w := p.AuxLen()
		px, py, pz := v.Periods()
		rc2 := v.Cutoff * v.Cutoff
		nan := math.NaN()
		for j := v.NOwn; j < v.NLoc; j++ {
			near := false
			for i := 0; i < v.NOwn && !near; i++ {
				dx := px.MinImage(v.X[3*j] - v.X[3*i])
				dy := py.MinImage(v.X[3*j+1] - v.X[3*i+1])
				dz := pz.MinImage(v.X[3*j+2] - v.X[3*i+2])
				near = dx*dx+dy*dy+dz*dz < rc2
			}
			if !near {
				for k := j * w; k < (j+1)*w; k++ {
					aux[k] = nan
				}
			}
		}
	}
	p.TwoPhaseFF.PhaseTwo(v, aux, lo, hi)
}

// perturbAt names the float of every received frame a perturbed row
// moves.
type perturbAt int

const (
	perturbNone perturbAt = iota
	perturbFirst
	perturbMiddle
	perturbLast
)

func (p perturbAt) String() string {
	return [...]string{"", "first", "middle", "last"}[p]
}

// perturbedTransport adds 1e-13 to one float of every point-to-point
// frame it delivers. A grid engine's point-to-point frames are its ghost
// frames; the collectives pass through untouched.
type perturbedTransport struct {
	cluster.Transport
	at perturbAt
}

// Recv receives and perturbs the frame.
func (p perturbedTransport) Recv(dst, src int, into []float64) ([]float64, float64) {
	buf, t := p.Transport.Recv(dst, src, into)
	if n := len(buf); n > 0 {
		i := [...]int{0, 0, n / 2, n - 1}[p.at]
		buf[i] += 1e-13
	}
	return buf, t
}
