// Package units defines the physical constants and unit conversions used
// throughout MLMD. Internally all physics runs in Hartree atomic units
// (ħ = m_e = e = 4πε0 = 1); these helpers convert to and from laboratory
// units for I/O and reporting.
package units

// Fundamental constants in atomic units.
const (
	Hbar         = 1.0 // reduced Planck constant
	ElectronMass = 1.0 // electron rest mass
	ElementaryQ  = 1.0 // elementary charge
	LightSpeed   = 137.035999084
)

// Conversion factors between atomic units and laboratory units.
const (
	BohrPerAngstrom    = 1.8897259886
	AngstromPerBohr    = 1.0 / BohrPerAngstrom
	HartreePerEV       = 1.0 / 27.211386245988
	EVPerHartree       = 27.211386245988
	AttosecondPerAUT   = 24.188843265857 // one atomic time unit in attoseconds
	FemtosecondPerAUT  = AttosecondPerAUT * 1e-3
	AUTPerFemtosecond  = 1.0 / FemtosecondPerAUT
	AMUPerElectronMass = 1.0 / 1822.888486209
	ElectronMassPerAMU = 1822.888486209
	KelvinPerHartree   = 315775.02480407 // Hartree expressed in kelvin
	HartreePerKelvin   = 1.0 / KelvinPerHartree
)

// Atomic masses (in atomic mass units) for the PbTiO3 system.
const (
	MassPbAMU = 207.2
	MassTiAMU = 47.867
	MassOAMU  = 15.999
)

// Angstrom converts a length in Bohr to Angstrom.
func Angstrom(bohr float64) float64 { return bohr * AngstromPerBohr }

// Bohr converts a length in Angstrom to Bohr.
func Bohr(angstrom float64) float64 { return angstrom * BohrPerAngstrom }

// EV converts an energy in Hartree to electron-volts.
func EV(hartree float64) float64 { return hartree * EVPerHartree }

// Hartree converts an energy in electron-volts to Hartree.
func Hartree(ev float64) float64 { return ev * HartreePerEV }

// Femtoseconds converts a time in atomic units to femtoseconds.
func Femtoseconds(aut float64) float64 { return aut * FemtosecondPerAUT }

// Attoseconds converts a time in atomic units to attoseconds.
func Attoseconds(aut float64) float64 { return aut * AttosecondPerAUT }

// AUTime converts a time in femtoseconds to atomic time units.
func AUTime(fs float64) float64 { return fs * AUTPerFemtosecond }

// MassAU converts a mass in AMU to atomic units (electron masses).
func MassAU(amu float64) float64 { return amu * ElectronMassPerAMU }

// ThermalEnergy returns k_B*T in Hartree for a temperature in kelvin.
func ThermalEnergy(kelvin float64) float64 { return kelvin * HartreePerKelvin }

// Temperature returns the temperature in kelvin for a thermal energy in Hartree.
func Temperature(hartree float64) float64 { return hartree * KelvinPerHartree }
