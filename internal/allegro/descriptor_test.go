package allegro

import (
	"math"
	"math/rand"
	"testing"

	"mlmd/internal/linalg"
)

// pairGradRecomputed is the pair term as it stood before the radial tape:
// the Gaussians and the cutoff evaluated inside the term itself. It is kept
// here, and only here, as the reference the taped term must equal bit for
// bit.
func pairGradRecomputed(d DescriptorSpec, spJ int, gD, vec, cs []float64, dx, dy, dz, r float64) (gx, gy, gz float64) {
	w := d.width()
	nr := d.NRadial
	fc, dfc := cutoffFn(r, d.Cutoff)
	ux, uy, uz := dx/r, dy/r, dz/r
	for k := 0; k < nr; k++ {
		base := spJ*nr + k
		g := math.Exp(-(r - cs[k]) * (r - cs[k]) / (2 * w * w))
		dg := g * (-(r - cs[k]) / (w * w))
		cS := gD[base*2] * (dg*fc + g*dfc)
		sx, sy, sz := vec[base*3], vec[base*3+1], vec[base*3+2]
		su := sx*ux + sy*uy + sz*uz
		cRad := gD[base*2+1] * 2 * (su * (dg*fc + g*dfc))
		cTan := gD[base*2+1] * 2 * g * fc / r
		gx += cS*ux + cRad*ux + cTan*(sx-su*ux)
		gy += cS*uy + cRad*uy + cTan*(sy-su*uy)
		gz += cS*uz + cRad*uz + cTan*(sz-su*uz)
	}
	return gx, gy, gz
}

// TestPairGradTapedMatchesRecomputed: the pair term read from a radial
// record equals, by bits, the term that evaluates the basis and the cutoff
// itself — over random geometries and payloads, both neighbor species, and
// the edges of the radial range (just below the cutoff, at and past it, and
// tiny separations).
func TestPairGradTapedMatchesRecomputed(t *testing.T) {
	spec := DescriptorSpec{Cutoff: 2.5, NRadial: 5, NSpecies: 2}
	cs := spec.Centers()
	rc := spec.Cutoff
	rng := rand.New(rand.NewSource(23))
	gD := make([]float64, spec.Dim())
	vec := make([]float64, spec.NSpecies*spec.NRadial*3)
	rec := make([]float64, spec.RadialLen())
	g := make([]float64, spec.NRadial)

	radii := []float64{math.Nextafter(rc, 0), rc * (1 - 1e-12), rc, math.Nextafter(rc, 3), 1.5 * rc, 1e-3, 1e-9, 1e-300}
	for len(radii) < 2000 {
		radii = append(radii, rc*rng.Float64())
	}
	for n, r := range radii {
		for i := range gD {
			gD[i] = rng.NormFloat64()
		}
		for i := range vec {
			vec[i] = 3 * rng.NormFloat64()
		}
		// A random direction scaled to length r; the term takes r as given,
		// exactly as the descriptor gather hands it over.
		ux, uy, uz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		s := r / math.Sqrt(ux*ux+uy*uy+uz*uz)
		dx, dy, dz := ux*s, uy*s, uz*s
		spec.gaussExponents(r, cs, g)
		linalg.ExpRows(g, g)
		spec.radialInto(r, cs, g, rec)
		for spJ := 0; spJ < spec.NSpecies; spJ++ {
			wx, wy, wz := pairGradRecomputed(spec, spJ, gD, vec, cs, dx, dy, dz, r)
			gx, gy, gz := spec.PairGradTaped(spJ, gD, vec, rec, dx, dy, dz, r)
			if math.Float64bits(gx) != math.Float64bits(wx) ||
				math.Float64bits(gy) != math.Float64bits(wy) ||
				math.Float64bits(gz) != math.Float64bits(wz) {
				t.Fatalf("case %d r=%v species %d: taped (%v,%v,%v) != recomputed (%v,%v,%v)",
					n, r, spJ, gx, gy, gz, wx, wy, wz)
			}
		}
	}
}
