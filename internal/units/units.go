// Package units holds the physical constants and unit conventions used
// throughout the library.
//
// The library works in the "metal"-style unit system used by the paper and
// by LAMMPS metal units:
//
//	length   Angstrom (A)
//	energy   electron-volt (eV)
//	mass     atomic mass unit (amu, g/mol)
//	time     picosecond (ps)
//	pressure bar
//
// With these choices the equations of motion need a conversion constant,
// because 1 eV/(A*amu) is not 1 A/ps^2. ForceToAccel converts an
// acceleration computed as force/mass in eV/(A*amu) into A/ps^2.
package units

// Boltzmann is the Boltzmann constant in eV/K.
const Boltzmann = 8.617333262e-5

// ForceToAccel converts eV/(A*amu) to A/ps^2.
//
// 1 eV = 1.602176634e-19 J, 1 amu = 1.66053906660e-27 kg, 1 A = 1e-10 m,
// 1 ps = 1e-12 s. So 1 eV/(A*amu) = 1.602176634e-19 / (1e-10 * 1.66053906660e-27)
// m/s^2 = 9.64853321e17 m/s^2 = 9.64853321e17 * 1e-14 A/ps^2.
const ForceToAccel = 9648.53321233

// KineticToEV converts amu*(A/ps)^2 to eV. It is exactly the reciprocal of
// ForceToAccel (both convert between the eV and amu*(A/ps)^2 energy
// scales): 1 amu*(A/ps)^2 = 1.66053906660e-23 J = 1.0364e-4 eV.
const KineticToEV = 1.0 / ForceToAccel

// PressureEVA3ToBar converts eV/A^3 to bar.
// 1 eV/A^3 = 1.602176634e-19 J / 1e-30 m^3 = 1.602176634e11 Pa = 1.602176634e6 bar.
const PressureEVA3ToBar = 1.602176634e6

// Atomic masses in amu for the species used by the paper's two benchmark
// systems (water and copper).
const (
	MassH  = 1.00794
	MassO  = 15.9994
	MassCu = 63.546
)
