// Package cluster simulates the heterogeneous exascale machine the paper
// runs on (Aurora: 10,624 nodes × 12 PVC GPU tiles) so that the scaling
// experiments (Figs. 4–5) and machine-scale projections (Tables I–II) can be
// reproduced without the hardware, and provides the communication substrate
// of the real sharded MD engine (internal/shard). Four layers:
//
//   - a device model mapping (kernel class, precision) → sustained FLOP/s,
//     calibrated to the fractions the paper measures on a PVC tile
//     (GEMM ≈ 80–94% of peak, stencil ≈ 15%, FP64 power-throttled);
//   - an MPI-like communicator (Comm) with a virtual alpha-beta clock:
//     point-to-point sends with pooled payloads, Barrier, AllReduce,
//     Gather and AllGather collectives — message payloads are real, only
//     the clock is modeled. The plumbing lives behind the Transport
//     interface with two implementations: the in-process channel transport
//     (ranks as goroutines of one process) and the multi-process
//     SocketTransport (one OS process per rank over Unix-domain sockets
//     speaking the internal/cluster/wire frame format), with identical
//     delivery ordering and collective combine order, so a bulk-synchronous
//     caller is bitwise transport-independent;
//   - the spatial-decomposition topology: Grid3D (the periodic Px×Py×Pz
//     rank torus) and Cuts3D (its movable per-axis subdomain boundaries,
//     the state the shard engine's dynamic load balancer adjusts);
//   - a bulk-synchronous analytic simulator for machine-scale rank counts
//     (P up to 120,000), where per-step time = max over ranks of modeled
//     compute + alpha-beta collective costs.
package cluster

import (
	"fmt"

	"mlmd/internal/precision"
)

// KernelClass distinguishes computations with different achievable
// efficiency on a device.
type KernelClass int

const (
	// KernelGEMM is dense matrix multiply (systolic-array friendly).
	KernelGEMM KernelClass = iota
	// KernelStencil is nearest-neighbor sparse stencil work.
	KernelStencil
	// KernelNN is neural-network inference (GEMM-like with small matrices).
	KernelNN
)

// Device models one accelerator tile (or CPU socket).
type Device struct {
	Name string
	// PeakFP64 is the vendor peak in FLOP/s for FP64 (dual-issue pipes
	// make FP32 peak identical on PVC).
	PeakFP64 float64
	// SustainedFrac[class] is the fraction of peak a kernel class reaches.
	SustainedFrac map[KernelClass]float64
	// FP64Throttle is the sustained-FP64 derate (power capping: 11 of 23
	// TFLOP/s on Aurora).
	FP64Throttle float64
	// BF16Speedup is the end-to-end gain of hybrid FP32/BF16 GEMM over
	// FP32 (the paper measures 1.198×).
	BF16Speedup float64
	// MemoryBytes caps resident data (HBM per tile).
	MemoryBytes int64
}

// PVCTile returns the Intel Data Center GPU Max 1550 single-tile model used
// throughout the benchmarks, calibrated against Tables IV–V.
func PVCTile() *Device {
	return &Device{
		Name:     "PVC-tile",
		PeakFP64: 23e12,
		SustainedFrac: map[KernelClass]float64{
			KernelGEMM:    0.85, // CGEMM: 81–94% measured
			KernelStencil: 0.15, // kin_prop: 15.26% measured
			KernelNN:      0.35, // small-matrix inference
		},
		FP64Throttle: 11.0 / 23.0,
		BF16Speedup:  1.198,
		MemoryBytes:  64 << 30,
	}
}

// Throughput returns the sustained FLOP/s of the device for a kernel class
// under a precision mode.
func (d *Device) Throughput(class KernelClass, mode precision.Mode) float64 {
	frac, ok := d.SustainedFrac[class]
	if !ok {
		frac = 0.1
	}
	base := d.PeakFP64 * frac
	switch mode {
	case precision.ModeFP64:
		return base * d.FP64Throttle
	case precision.ModeFP32:
		return base
	case precision.ModeBF16:
		return base * d.BF16Speedup
	case precision.ModeBF16x2:
		return base * d.BF16Speedup / 2
	case precision.ModeBF16x3:
		return base * d.BF16Speedup / 3
	}
	return base
}

// ComputeTime returns the modeled seconds to execute flops of the given
// class/mode, plus a fixed kernel-launch overhead.
func (d *Device) ComputeTime(flops float64, class KernelClass, mode precision.Mode) float64 {
	const launchOverhead = 8e-6 // seconds per kernel batch
	return flops/d.Throughput(class, mode) + launchOverhead
}

// Interconnect is an alpha–beta network model with a topology factor.
type Interconnect struct {
	Alpha float64 // per-message latency (s)
	Beta  float64 // per-byte time (s) = 1/bandwidth
}

// Slingshot11 returns the Aurora network model (HPE Slingshot 11, Dragonfly:
// ~2 µs latency, 25 GB/s effective per-NIC bandwidth).
func Slingshot11() Interconnect {
	return Interconnect{Alpha: 2e-6, Beta: 1.0 / 25e9}
}

// PointToPoint returns the modeled time to send bytes between two ranks.
func (ic Interconnect) PointToPoint(bytes float64) float64 {
	return ic.Alpha + bytes*ic.Beta
}

// AllReduce returns the modeled time of a P-rank allreduce of bytes
// (recursive doubling: 2·log2 P message rounds with bandwidth term).
func (ic Interconnect) AllReduce(p int, bytes float64) float64 {
	if p <= 1 {
		return 0
	}
	rounds := log2ceil(p)
	return float64(2*rounds)*ic.Alpha + 2*bytes*ic.Beta*float64(rounds)
}

// AllGather returns the modeled time of a P-rank ring allgather of
// bytesPerRank from each rank: P−1 rounds, each forwarding one rank's
// contribution to the ring neighbor.
func (ic Interconnect) AllGather(p int, bytesPerRank float64) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1) * (ic.Alpha + bytesPerRank*ic.Beta)
}

// Gather returns the modeled time for a P-rank gather of bytes per rank to
// the root (binomial tree latency, serialized root bandwidth).
func (ic Interconnect) Gather(p int, bytesPerRank float64) float64 {
	if p <= 1 {
		return 0
	}
	return float64(log2ceil(p))*ic.Alpha + float64(p)*bytesPerRank*ic.Beta
}

// HaloExchange returns the modeled time of a nearest-neighbor halo swap of
// bytes with each of nNeighbors.
func (ic Interconnect) HaloExchange(nNeighbors int, bytes float64) float64 {
	return float64(nNeighbors) * (ic.Alpha + bytes*ic.Beta)
}

func log2ceil(p int) int {
	n := 0
	v := 1
	for v < p {
		v <<= 1
		n++
	}
	return n
}

// Machine is a homogeneous collection of nodes.
type Machine struct {
	Name         string
	Nodes        int
	RanksPerNode int
	Device       *Device
	Net          Interconnect
}

// Aurora returns the full-scale Aurora model: 10,000 usable nodes × 12 GPU
// tiles (the configuration of the paper's largest runs).
func Aurora() *Machine {
	return &Machine{
		Name:         "Aurora",
		Nodes:        10000,
		RanksPerNode: 12,
		Device:       PVCTile(),
		Net:          Slingshot11(),
	}
}

// MaxRanks returns the total rank (tile) count.
func (m *Machine) MaxRanks() int { return m.Nodes * m.RanksPerNode }

// Validate reports configuration errors.
func (m *Machine) Validate() error {
	if m.Nodes < 1 || m.RanksPerNode < 1 {
		return fmt.Errorf("cluster: machine %q has no ranks", m.Name)
	}
	if m.Device == nil {
		return fmt.Errorf("cluster: machine %q has no device model", m.Name)
	}
	return nil
}
