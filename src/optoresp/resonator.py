"""Hanger-type (notch) resonator transmission models and photon-number budget.

A resonator side-coupled to a feedline produces a dip in S21:

    S21(f) = 1 - (Q_tot/Q_ext) / (1 + 2i Q_tot (f - f_r)/f_r)

with 1/Q_tot = 1/Q_int + 1/Q_ext.  The full line model multiplies this by an
amplitude/delay/phase prefactor and allows a complex external Q that encodes
the circuit-asymmetry rotation of the resonance circle (Khalil et al.,
J. Appl. Phys. 111, 054510 (2012)).  :func:`notch` is this model's one
implementation; the synthetic traces, through :func:`s21_full`, and the
full-S21 fit evaluate it.

Decay rates are angular throughout: kappa_x = omega_r / Q_x in rad/s.  Note
that device tables are often labeled "kappa/2pi (MHz)" while carrying values
that are numerically omega_r/Q in units of 1e6 rad/s; the photon-number
formula below only closes on the tabulated cavity photon numbers under the
rad/s reading, which is the one used here.
"""

from dataclasses import dataclass

import numpy as np

from .checks import check_fields, check_range, ranged
from .constants import HBAR, TWO_PI


# the closed domains of from_asymmetry_angle's arguments: |Q_ext| of at least
# 1 keeps Q_ext = |Q_ext| cos(phi) >= 0.07 inside ResonatorMode's domain
DOMAINS = {"q_ext_mag": (1.0, 1e18),
           "phi": (-1.5, 1.5)}  # rad: within 86 degrees of the symmetric dip


@dataclass(frozen=True)
class ResonatorMode:
    """A single resonance: frequency plus internal/external quality factors.

    Parameters
    ----------
    f_r : float
        Resonance frequency [Hz].
    q_int : float
        Internal quality factor.
    q_ext : float
        Real part of the external quality factor.
    q_ext_imag : float, optional
        Imaginary part of the external quality factor; encodes the
        asymmetry rotation exp(i*phi) of the resonance circle.  The
        conventional reported external Q is ``q_ext_reported``.
    """

    # each field's closed domain [lo, hi]; in it no decay rate, dip or
    # photon number overflows or underflows
    f_r: float = ranged(1e3, 1e15)  # Hz: 1 kHz to 1 PHz, audio to optical
    # an overdamped mode to far past the best superconducting cavities (1e11)
    q_int: float = ranged(1e-2, 1e18)
    q_ext: float = ranged(1e-2, 1e18)
    q_ext_imag: float = ranged(-1e18, 1e18, 0.0)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def from_asymmetry_angle(cls, f_r, q_int, q_ext_mag, phi):
        """Build a mode from |Q_ext| and the asymmetry angle phi.

        The complex external Q is Q_ext_mag * exp(-i*phi), so phi = 0
        recovers the symmetric dip.  Both arguments take their DOMAINS.
        """
        check_range("q_ext_mag", q_ext_mag, DOMAINS["q_ext_mag"])
        check_range("phi", phi, DOMAINS["phi"])
        return cls(f_r, q_int, q_ext_mag * np.cos(phi), -q_ext_mag * np.sin(phi))

    @property
    def q_ext_complex(self) -> complex:
        return complex(self.q_ext, self.q_ext_imag)

    @property
    def inv_q_ext_effective(self) -> float:
        """Re(1/(Q_ext,real + i Q_ext,imag)) — the loss-bearing part of the coupling."""
        return (1.0 / self.q_ext_complex).real

    @property
    def q_ext_reported(self) -> float:
        """External Q in the diameter-corrected convention, 1/Re(1/Q_ext_complex)."""
        return 1.0 / self.inv_q_ext_effective

    @property
    def q_tot(self) -> float:
        """Total quality factor, 1/Q_tot = 1/Q_int + Re(1/Q_ext_complex)."""
        return 1.0 / (1.0 / self.q_int + self.inv_q_ext_effective)

    @property
    def omega_r(self) -> float:
        """Angular resonance frequency [rad/s]."""
        return TWO_PI * self.f_r

    @property
    def kappa_int(self) -> float:
        """Internal energy decay rate [rad/s]."""
        return self.omega_r / self.q_int

    @property
    def kappa_ext(self) -> float:
        """External energy decay rate [rad/s]."""
        return self.omega_r * self.inv_q_ext_effective

    @property
    def kappa_tot(self) -> float:
        return self.kappa_int + self.kappa_ext


@dataclass(frozen=True)
class LineCalibration:
    """Feedline amplitude/delay/phase prefactor A * exp(-i(2 pi f tau + alpha)).

    amplitude is dimensionless (> 0), delay in seconds, phase_offset in rad.
    """

    amplitude: float = ranged(1e-6, 1e6, 1.0)  # -120 dB to +120 dB of gain
    delay: float = ranged(-1e-3, 1e-3, 0.0)  # s: up to 200 km of cable
    phase_offset: float = ranged(-1e3, 1e3, 0.0)  # rad: 160 turns unwrapped

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class DriveCondition:
    """Microwave drive: input power [W] at the feedline and probe frequency [Hz]."""

    # W: 1.5 photons a second at 1 GHz to 10 kW
    input_power: float = ranged(1e-24, 1e4)
    # Hz, signed: any mode's frequency detuned by up to 1 PHz
    probe_frequency: float = ranged(-1e16, 1e16)

    def __post_init__(self):
        check_fields(self)


def notch(f, f_r, q_tot, q_ext, amplitude=1.0, delay=0.0, phase_offset=0.0):
    """S21 at f [Hz]: the dip above behind the line prefactor
    A exp(-i(2 pi f tau + alpha)), with amplitude A, delay tau [s] and phase
    offset alpha [rad].  q_ext may be real or complex (Q_e,r + i Q_e,i)."""
    f = np.asarray(f, dtype=float)
    dip = 1.0 - (q_tot / q_ext) / (1.0 + 2j * q_tot * ((f - f_r) / f_r))
    return amplitude * np.exp(-1j * (TWO_PI * f * delay + phase_offset)) * dip


def s21_full(mode: ResonatorMode, line: LineCalibration, f):
    """The mode's dip, complex Q_ext included, behind the line's prefactor."""
    return notch(f, mode.f_r, mode.q_tot, mode.q_ext_complex, line.amplitude,
                 line.delay, line.phase_offset)


def photon_number(mode: ResonatorMode, drive: DriveCondition):
    """Mean intracavity photon number for a hanger-type resonator.

    n_cav = [2 kappa_ext / (kappa_tot^2 + 4 (omega - omega_r)^2)] * P_in/(hbar omega_r)
    """
    w = TWO_PI * drive.probe_frequency
    det = w - mode.omega_r
    lorentz = 2.0 * mode.kappa_ext / (mode.kappa_tot**2 + 4.0 * det**2)
    return lorentz * drive.input_power / (HBAR * mode.omega_r)
