package core

import (
	"fmt"
	"time"

	"mlmd/internal/cluster"
	"mlmd/internal/rank"
	"mlmd/internal/tddft"
)

// DistributedResult reports one distributed MD step: the gathered n_exc (as
// in the serial MDStep) plus the virtual wall-clock the communicator
// accumulated — the bulk-synchronous time a real machine would have spent,
// including the modeled collective costs.
type DistributedResult struct {
	NExc        []float64
	VirtualTime float64
	// MeasuredCompute is the real CPU seconds the slowest rank spent.
	MeasuredCompute float64
}

// MDStepDistributed runs one MD step with the domains distributed over an
// MPI-like communicator, every rank of which this process hosts on the rank
// runtime: rank r owns domains r, r+P, r+2P, ... Each rank propagates its
// domains (advancing its virtual clock by the measured compute time), then
// participates in the n_exc gather and a closing barrier, exactly the
// communication pattern of Sec. V.A.8. Every domain goes through the same
// advanceDomain as the serial MDStep, so n_exc and the wavefunctions are
// bitwise identical to it; a transport rank failure is returned as the
// error.
func (m *DCMESH) MDStepDistributed(comm *cluster.Comm) (*DistributedResult, error) {
	p := comm.Size()
	if p < 1 || p > len(m.Domains) {
		return nil, fmt.Errorf("core: %d ranks for %d domains", p, len(m.Domains))
	}
	cfg := m.Cfg
	// Field sub-cycling is global (the light field is shared state): do it
	// once up front, as in the serial path.
	m.sampleField()
	var nexc []float64
	rt := rank.Start(p, func(r, _ int) {
		start := time.Now()
		var local []float64
		for di := r; di < len(m.Domains); di += p {
			d := m.Domains[di]
			m.advanceDomain(d, m.domainField(di))
			local = append(local, float64(di), d.NExc)
		}
		comm.AdvanceClock(r, time.Since(start).Seconds())
		// Gather (domain id, n_exc) pairs at root.
		parts := comm.Gather(r, 0, local)
		if r == 0 {
			nexc = make([]float64, len(m.Domains))
			for _, part := range parts {
				for k := 0; k+1 < len(part); k += 2 {
					nexc[int(part[k])] = part[k+1]
				}
			}
		}
		comm.Barrier(r)
	})
	rt.Dispatch(0)
	rt.Close()
	if err := rt.Err(); err != nil {
		return nil, err
	}
	m.step++
	m.time += float64(cfg.NQD) * cfg.DtQD
	return &DistributedResult{
		NExc:            nexc,
		VirtualTime:     comm.MaxClock(),
		MeasuredCompute: comm.MaxClock(), // clocks carry measured compute here
	}, nil
}

// advanceDomain runs the per-domain Ehrenfest + SH update (shared with the
// serial MDStep): ax is the domain's vector-potential history, one value per
// QD sub-step.
func (m *DCMESH) advanceDomain(d *DomainState, ax []float64) {
	cfg := m.Cfg
	d.Prop.RunDriven(d.Psi, cfg.DtQD, ax)
	surv := tddft.ProjectOccupations(d.Psi0, d.Psi)
	occ := d.occ
	var promoted float64
	for s := range occ {
		occ[s] = d.Occ0[s] * surv[s]
		promoted += d.Occ0[s] * (1 - surv[s])
	}
	nEmpty := 0
	for s := range occ {
		if d.Occ0[s] < 0.5 {
			nEmpty++
		}
	}
	if nEmpty > 0 {
		for s := range occ {
			if d.Occ0[s] < 0.5 {
				occ[s] += promoted / float64(nEmpty)
			}
		}
	}
	copy(d.SH.F, occ)
	dtMD := float64(cfg.NQD) * cfg.DtQD
	couplings := m.domainCouplings(d, dtMD)
	d.SH.Step(couplings, dtMD)
	d.NExc = tddft.ExcitedPopulation(d.Occ0, d.SH.F)
}
