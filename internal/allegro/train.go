package allegro

import (
	"fmt"
	"math"
	"math/rand"

	"mlmd/internal/md"
	"mlmd/internal/nn"
)

// Sample is one training configuration: positions (with box and types
// carried by the template system), the reference total energy, and the
// fidelity/dataset tag used by TEA.
type Sample struct {
	X       []float64
	Energy  float64
	Dataset int
}

// Dataset labels for the TEA tests and the foundation-model workflow.
const (
	DatasetPrimary = 0
)

// TrainConfig bundles training hyperparameters.
type TrainConfig struct {
	Epochs int
	LR     float64
	// SAMRho > 0 enables Legato (sharpness-aware) training.
	SAMRho float64
	// TEA enables per-dataset total-energy alignment offsets: each dataset
	// d gets a learned offset b_d added to the model prediction, absorbing
	// inter-fidelity shifts (MSA2, Sec. V.A.7).
	TEA      bool
	NDataset int
	Seed     int64
	// Batch is the minibatch size (0 = full batch).
	Batch int
}

// TrainResult reports the fit.
type TrainResult struct {
	FinalLoss  float64
	LossCurve  []float64
	TEAOffsets []float64
}

// Train fits the model's per-species networks to total energies of samples,
// using the template system for box/types. It returns the loss history.
//
// The loss is ½ Σ (E_pred − E_ref)²/N_atoms², averaged over the batch;
// gradients flow into every species net through the per-atom energy sums.
func (m *Model) Train(template *md.System, samples []Sample, cfg TrainConfig) (*TrainResult, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("allegro: no training samples")
	}
	if cfg.Epochs <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("allegro: bad config %+v", cfg)
	}
	nd := cfg.NDataset
	if nd < 1 {
		nd = 1
	}
	teaOffsets := make([]float64, nd)
	if cfg.TEA {
		// Affine total-energy alignment (TEA, ref [49]): initialize each
		// dataset's offset from its mean energy relative to dataset 0, so
		// the network only has to learn the shared physics; SGD then
		// refines the offsets jointly with the weights.
		sums := make([]float64, nd)
		counts := make([]float64, nd)
		for _, s := range samples {
			if s.Dataset < 0 || s.Dataset >= nd {
				return nil, fmt.Errorf("allegro: sample dataset %d out of range [0,%d)", s.Dataset, nd)
			}
			sums[s.Dataset] += s.Energy
			counts[s.Dataset]++
		}
		if counts[0] == 0 {
			return nil, fmt.Errorf("allegro: TEA requires samples in dataset 0")
		}
		ref := sums[0] / counts[0]
		for d := 1; d < nd; d++ {
			if counts[d] > 0 {
				teaOffsets[d] = sums[d]/counts[d] - ref
			}
		}
	}
	opts := make([]*nn.Adam, len(m.Nets))
	grads := make([]*nn.Grads, len(m.Nets))
	for sp := range m.Nets {
		opts[sp] = nn.NewAdam(cfg.LR)
		grads[sp] = nn.NewGrads(m.Nets[sp])
	}
	var sams []*nn.SAM
	if cfg.SAMRho > 0 {
		sams = make([]*nn.SAM, len(m.Nets))
		for sp := range sams {
			sams[sp] = nn.NewSAM(cfg.SAMRho)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sys := cloneSystem(template)
	res := &TrainResult{}
	batch := cfg.Batch
	if batch <= 0 || batch > len(samples) {
		batch = len(samples)
	}
	nAtoms := float64(template.N)

	// accumulate computes the loss and weight gradients over batch indices
	// at the current parameters.
	accumulate := func(idx []int, teaGrad []float64) float64 {
		for sp := range grads {
			grads[sp].Zero()
		}
		if teaGrad != nil {
			for i := range teaGrad {
				teaGrad[i] = 0
			}
		}
		var loss float64
		desc := make([]float64, m.Spec.Dim())
		var env neighborEnv
		for _, si := range idx {
			s := samples[si]
			copy(sys.X, s.X)
			m.ensureNeighbors(sys)
			// Forward pass with tapes kept per atom.
			type atomTape struct {
				sp   int
				tape *nn.Tape
			}
			tapes := make([]atomTape, sys.N)
			var ePred float64
			for i := 0; i < sys.N; i++ {
				buildEnv(sys, i, m.nl.Row(i), m.Spec.Cutoff, &env)
				m.Spec.Descriptor(sys, env, desc)
				sp := sys.Type[i]
				tp := m.Nets[sp].ForwardTape(desc)
				tapes[i] = atomTape{sp: sp, tape: tp}
				ePred += tp.Out() + m.PerSpeciesShift[sp]
			}
			if cfg.TEA {
				ePred += teaOffsets[s.Dataset]
			}
			diff := (ePred - s.Energy) / nAtoms
			loss += 0.5 * diff * diff
			co := diff / nAtoms
			for i := 0; i < sys.N; i++ {
				m.Nets[tapes[i].sp].Backward(tapes[i].tape, []float64{co}, grads[tapes[i].sp])
			}
			if cfg.TEA && teaGrad != nil {
				teaGrad[s.Dataset] += co * nAtoms // d ePred/d b_d = 1
			}
		}
		return loss / float64(len(idx))
	}

	teaGrad := make([]float64, nd)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		nb := 0
		for lo := 0; lo < len(order); lo += batch {
			hi := lo + batch
			if hi > len(order) {
				hi = len(order)
			}
			idx := order[lo:hi]
			loss := accumulate(idx, teaGrad)
			if cfg.SAMRho > 0 {
				for sp := range m.Nets {
					sams[sp].Perturb(m.Nets[sp], grads[sp])
				}
				loss = accumulate(idx, teaGrad)
				for sp := range m.Nets {
					sams[sp].Restore(m.Nets[sp])
				}
			}
			for sp := range m.Nets {
				opts[sp].Step(m.Nets[sp], grads[sp])
			}
			if cfg.TEA {
				for d := range teaOffsets {
					teaOffsets[d] -= cfg.LR * 10 * teaGrad[d] / float64(len(idx))
				}
			}
			epochLoss += loss
			nb++
		}
		res.LossCurve = append(res.LossCurve, epochLoss/float64(nb))
	}
	res.FinalLoss = res.LossCurve[len(res.LossCurve)-1]
	res.TEAOffsets = teaOffsets
	return res, nil
}

func cloneSystem(s *md.System) *md.System {
	c, err := md.NewSystem(s.N, s.Lx, s.Ly, s.Lz)
	if err != nil {
		panic(err)
	}
	copy(c.X, s.X)
	copy(c.V, s.V)
	copy(c.Mass, s.Mass)
	copy(c.Type, s.Type)
	return c
}

// GenerateSamples runs short thermalized MD with the reference force field
// and harvests configurations + energies — the synthetic stand-in for the
// paper's DFT training trajectories.
func GenerateSamples(template *md.System, ref md.ForceField, n int, kT, dt float64, stride int, dataset int, seed int64) []Sample {
	sys := cloneSystem(template)
	sys.InitVelocities(kT, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	pe := ref.ComputeForces(sys)
	var out []Sample
	for len(out) < n {
		for s := 0; s < stride; s++ {
			pe = md.VelocityVerlet(sys, ref, dt)
			md.LangevinThermostat(sys, kT, 0.02, dt, rng)
		}
		out = append(out, Sample{
			X:       append([]float64(nil), sys.X...),
			Energy:  pe,
			Dataset: dataset,
		})
	}
	return out
}

// EnergyRMSE evaluates the model on held-out samples, returning the RMS
// per-atom energy error.
func (m *Model) EnergyRMSE(template *md.System, samples []Sample, teaOffsets []float64) float64 {
	sys := cloneSystem(template)
	var sum float64
	for _, s := range samples {
		copy(sys.X, s.X)
		e := m.Energy(sys)
		if teaOffsets != nil {
			e += teaOffsets[s.Dataset]
		}
		d := (e - s.Energy) / float64(sys.N)
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(samples)))
}
