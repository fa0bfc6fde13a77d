// Package allegro implements the XS-NNQMD force-field model in the spirit of
// the paper's Allegro family (Sec. V.A.6-7): strictly local per-atom
// descriptors within a cutoff (no message passing, which is what makes
// Allegro scalable), a per-species MLP mapping descriptors to atomic
// energies, analytic forces by backpropagation through the descriptors,
// Legato (SAM) training for robustness, total-energy-alignment (TEA) for
// multi-fidelity foundation-model training, and two-batch block inference
// (Sec. V.B.9).
//
// The descriptors are rotation- and permutation-invariant contractions of
// l=0 and l=1 neighbor tensors: per species, Gaussian radial-basis sums
// (scalars) and the squared modulus of radial-weighted direction sums
// (vector channel contracted to an invariant) — a light-weight stand-in for
// the full E(3)-equivariant tensor products of Allegro that preserves the
// information needed by the ferroelectric workload (the off-centering of an
// atom inside its cage is exactly an l=1 feature).
package allegro

import (
	"fmt"
	"math"

	"mlmd/internal/linalg"
	"mlmd/internal/md"
)

// DescriptorSpec fixes the descriptor layout.
type DescriptorSpec struct {
	Cutoff   float64 // radial cutoff (Bohr)
	NRadial  int     // number of Gaussian radial basis functions
	NSpecies int     // number of atom species
}

// Dim returns the descriptor length: per species, NRadial scalars plus
// NRadial vector-channel invariants.
func (d DescriptorSpec) Dim() int { return d.NSpecies * d.NRadial * 2 }

// Validate reports configuration errors.
func (d DescriptorSpec) Validate() error {
	if d.Cutoff <= 0 {
		return fmt.Errorf("allegro: cutoff %g must be positive", d.Cutoff)
	}
	if d.NRadial < 1 || d.NSpecies < 1 {
		return fmt.Errorf("allegro: NRadial=%d NSpecies=%d must be >= 1", d.NRadial, d.NSpecies)
	}
	return nil
}

// Centers returns the radial basis centers, evenly spaced in (0, cutoff) —
// the cs scratch argument of the evaluation paths (EvalAtom, GatherAtom).
func (d DescriptorSpec) Centers() []float64 { return d.centers() }

// centers returns the radial basis centers, evenly spaced in (0, cutoff).
func (d DescriptorSpec) centers() []float64 {
	c := make([]float64, d.NRadial)
	for k := range c {
		c[k] = d.Cutoff * float64(k+1) / float64(d.NRadial+1)
	}
	return c
}

// width returns the shared Gaussian width.
func (d DescriptorSpec) width() float64 {
	return d.Cutoff / float64(d.NRadial+1)
}

// cutoffFn is the smooth cosine cutoff and its radial derivative.
func cutoffFn(r, rc float64) (f, df float64) {
	if r >= rc {
		return 0, 0
	}
	x := math.Pi * r / rc
	return 0.5 * (math.Cos(x) + 1), -0.5 * math.Pi / rc * math.Sin(x)
}

// neighborEnv is the cached geometry of one atom's neighborhood. Its
// backing slices are reused across atoms by reset, so a long-lived env
// (e.g. one per pool worker) makes environment construction
// allocation-free in steady state.
type neighborEnv struct {
	j          []int     // neighbor atom indices
	dx, dy, dz []float64 // displacement components (j − i)
	r          []float64
	// gauss is descriptorInto's scratch: the Gaussian exponents of the whole
	// environment, then their exps, NRadial per neighbor.
	gauss []float64
}

func (env *neighborEnv) reset() {
	env.j = env.j[:0]
	env.dx = env.dx[:0]
	env.dy = env.dy[:0]
	env.dz = env.dz[:0]
	env.r = env.r[:0]
}

// buildEnv collects every candidate j of atom i (cand, in the caller's
// order — a neighbor-list row) that lies within cutoff rc into env, reusing
// its backing storage. It is the one environment filter: the global force
// path passes md.NeighborList rows, the sharded engine its rank rows.
//
//mlmd:hotpath
func buildEnv(sys *md.System, i int, cand []int32, rc float64, env *neighborEnv) {
	env.reset()
	x := sys.X
	px, py, pz := sys.Periods()
	xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
	for _, j32 := range cand {
		j := int(j32)
		// vector from i to j: sys.MinImage(j, i) with the box hoisted
		dx, dy, dz := px.MinImage(x[3*j]-xi), py.MinImage(x[3*j+1]-yi), pz.MinImage(x[3*j+2]-zi)
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if r >= rc || r == 0 {
			continue
		}
		env.j = append(env.j, j)
		env.dx = append(env.dx, dx)
		env.dy = append(env.dy, dy)
		env.dz = append(env.dz, dz)
		env.r = append(env.r, r)
	}
}

// Descriptor computes the invariant feature vector of atom i into out
// (length Dim). The layout is, per neighbor species sp and radial index k:
//
//	out[(sp*NR+k)*2+0] = Σ_j g_k(r_ij) fc(r_ij)                (scalar)
//	out[(sp*NR+k)*2+1] = |Σ_j g_k(r_ij) fc(r_ij) r̂_ij|²        (vector²)
func (d DescriptorSpec) Descriptor(sys *md.System, env neighborEnv, out []float64) {
	d.descriptorInto(sys, &env, out, d.centers(), make([]float64, d.NSpecies*d.NRadial*3), make([]float64, len(env.j)*d.RadialLen()))
}

// RadialLen returns the length of one pair's record on the radial tape: the
// NRadial Gaussians g_k, their radial derivatives through the cutoff
// h_k = dg_k·fc + g_k·dfc, and the cutoff value fc.
func (d DescriptorSpec) RadialLen() int { return 2*d.NRadial + 1 }

// gaussExponents writes the Gaussian exponents −(r−c_k)²/(2w²) of a pair at
// distance r into a (length NRadial); radialInto takes their exps.
//
//mlmd:hotpath
func (d DescriptorSpec) gaussExponents(r float64, cs, a []float64) {
	w := d.width()
	for k := range a {
		a[k] = -(r - cs[k]) * (r - cs[k]) / (2 * w * w)
	}
}

// radialInto fills t (length RadialLen) with the radial record of a pair at
// distance r, given g, the exps of its gaussExponents: t[k] = g_k,
// t[NRadial+k] = h_k, t[2·NRadial] = fc. It is the one place the Gaussian
// basis and the cosine cutoff become a record; the descriptor fills a tape of
// these records during the gather and every gradient path reads them back
// from it.
//
//mlmd:hotpath
func (d DescriptorSpec) radialInto(r float64, cs, g, t []float64) {
	w := d.width()
	nr := d.NRadial
	fc, dfc := cutoffFn(r, d.Cutoff)
	for k := 0; k < nr; k++ {
		dg := g[k] * (-(r - cs[k]) / (w * w))
		t[k] = g[k]
		t[nr+k] = dg*fc + g[k]*dfc
	}
	t[2*nr] = fc
}

// descriptorInto is Descriptor with caller-provided scratch (cs from
// centers(), vec of length NSpecies*NRadial*3, and env's own gauss), so
// per-worker hot loops avoid per-atom allocation. It also writes the radial
// tape: record n of tape (RadialLen values each, len(env.j) records) is env
// neighbor n's. The Gaussians of the whole environment are one
// linalg.ExpRows sweep.
//
//mlmd:hotpath
func (d DescriptorSpec) descriptorInto(sys *md.System, env *neighborEnv, out, cs, vec, tape []float64) {
	if len(out) != d.Dim() {
		panic("allegro: descriptor output length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	for i := range vec {
		vec[i] = 0
	}
	nr := d.NRadial
	rl := d.RadialLen()
	ng := len(env.j) * nr
	if cap(env.gauss) < ng {
		env.gauss = make([]float64, ng)
	}
	g := env.gauss[:ng]
	for n, r := range env.r {
		d.gaussExponents(r, cs, g[n*nr:(n+1)*nr])
	}
	linalg.ExpRows(g, g)
	for n := range env.j {
		sp := sys.Type[env.j[n]]
		r := env.r[n]
		t := tape[n*rl : (n+1)*rl]
		d.radialInto(r, cs, g[n*nr:(n+1)*nr], t)
		fc := t[2*nr]
		ux, uy, uz := env.dx[n]/r, env.dy[n]/r, env.dz[n]/r
		for k := 0; k < nr; k++ {
			gf := t[k] * fc
			base := (sp*nr + k)
			out[base*2] += gf
			vec[base*3] += gf * ux
			vec[base*3+1] += gf * uy
			vec[base*3+2] += gf * uz
		}
	}
	for b := 0; b < d.NSpecies*nr; b++ {
		out[b*2+1] = vec[b*3]*vec[b*3] + vec[b*3+1]*vec[b*3+1] + vec[b*3+2]*vec[b*3+2]
	}
}

// descriptorGradPre accumulates dE/dx for all atoms given dE/dD of atom i
// (gD, length Dim), its vector accumulators vec and its radial tape — both
// exactly as descriptorInto filled them for the same environment — by the
// chain rule through the descriptor. Forces are F = −dE/dx; the caller
// negates.
//
//mlmd:hotpath
func (d DescriptorSpec) descriptorGradPre(sys *md.System, env neighborEnv, i int, gD, dEdx, vec, tape []float64) {
	rl := d.RadialLen()
	for n := range env.j {
		j := env.j[n]
		gx, gy, gz := d.PairGradTaped(sys.Type[j], gD, vec, tape[n*rl:(n+1)*rl], env.dx[n], env.dy[n], env.dz[n], env.r[n])
		dEdx[3*j] += gx
		dEdx[3*j+1] += gy
		dEdx[3*j+2] += gz
		dEdx[3*i] -= gx
		dEdx[3*i+1] -= gy
		dEdx[3*i+2] -= gz
	}
}

// PairGradTaped evaluates the gradient of one atom's energy with respect to
// a single neighbor's position: given the center atom's backpropagated dE/dD
// (gD), its vector-channel accumulators S (vec, as filled by the descriptor
// evaluation), the pair's radial record t (RadialLen values, as the
// descriptor evaluation taped them), the neighbor's species spJ and the pair
// geometry (dx,dy,dz,r = displacement neighbor − center), it returns
// G = dE_center/dx_neighbor. By Newton's third law through the descriptor
// chain rule, the same G enters the center's own gradient with a minus sign.
// The record depends on r alone, so one record serves both directions of a
// pair.
//
// This is the single source of the pair-term arithmetic: both the global
// scatter path (descriptorGradPre) and the sharded canonical assembly
// (internal/shard's Allegro adapter) call it, so a force summed from
// PairGradTaped values in a fixed order is bitwise reproducible across
// decompositions.
//
//mlmd:hotpath
func (d DescriptorSpec) PairGradTaped(spJ int, gD, vec, t []float64, dx, dy, dz, r float64) (gx, gy, gz float64) {
	nr := d.NRadial
	fc := t[2*nr]
	ux, uy, uz := dx/r, dy/r, dz/r
	// d(unit vector)/d(x_j) pieces: du_a/dx_b = (δ_ab − u_a u_b)/r.
	for k := 0; k < nr; k++ {
		base := spJ*nr + k
		g, h := t[k], t[nr+k]
		// Scalar channel: D = Σ g fc ⇒ dD/dr = h = dg fc + g dfc,
		// dr/dx_j = u.
		cS := gD[base*2] * h
		// Vector channel: D = |S|², S = Σ g fc u.
		// dD/dx_j = 2 S · [ h u ⊗ u + g fc (I − u⊗u)/r ].
		sx, sy, sz := vec[base*3], vec[base*3+1], vec[base*3+2]
		su := sx*ux + sy*uy + sz*uz
		cRad := gD[base*2+1] * 2 * (su * h)
		cTan := gD[base*2+1] * 2 * g * fc / r
		gx += cS*ux + cRad*ux + cTan*(sx-su*ux)
		gy += cS*uy + cRad*uy + cTan*(sy-su*uy)
		gz += cS*uz + cRad*uz + cTan*(sz-su*uz)
	}
	return gx, gy, gz
}
