package core

import (
	"fmt"
	"sync"
	"time"

	"mlmd/internal/cluster"
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
// MPI-like communicator: rank r owns domains r, r+P, r+2P, ... Each rank
// propagates its domains (advancing its virtual clock by the measured
// compute time), then participates in the n_exc gather and a closing
// barrier, exactly the communication pattern of Sec. V.A.8. Results are
// bitwise identical to the serial MDStep modulo domain scheduling.
func (m *DCMESH) MDStepDistributed(comm *cluster.Comm) (*DistributedResult, error) {
	p := comm.Size()
	if p < 1 || p > len(m.Domains) {
		return nil, fmt.Errorf("core: %d ranks for %d domains", p, len(m.Domains))
	}
	cfg := m.Cfg
	// Field sub-cycling is global (the light field is shared state): do it
	// once up front, as in the serial path.
	m.sampleField()
	// Rank goroutines coordinate through Gather/Barrier and must all run
	// concurrently, so this fan-out deliberately stays on raw goroutines:
	// the par pool schedules independent tasks and does not guarantee
	// concurrency, which a barrier requires.
	var wg sync.WaitGroup
	rankNExc := make([][]float64, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		//lint:allow poolonly rank goroutines synchronize through Gather/Barrier and must all run concurrently
		go func(rank int) {
			defer wg.Done()
			start := time.Now()
			// Local domain work.
			var local []float64
			for di := rank; di < len(m.Domains); di += p {
				d := m.Domains[di]
				m.advanceDomain(d, m.domainField(di))
				local = append(local, float64(di), d.NExc)
			}
			comm.AdvanceClock(rank, time.Since(start).Seconds())
			// Gather (domain id, n_exc) pairs at root.
			parts := comm.Gather(rank, 0, local)
			if rank == 0 {
				out := make([]float64, len(m.Domains))
				for _, part := range parts {
					for k := 0; k+1 < len(part); k += 2 {
						out[int(part[k])] = part[k+1]
					}
				}
				rankNExc[0] = out
			}
			comm.Barrier(rank)
		}(r)
	}
	wg.Wait()
	m.step++
	m.time += float64(cfg.NQD) * cfg.DtQD
	return &DistributedResult{
		NExc:            rankNExc[0],
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
