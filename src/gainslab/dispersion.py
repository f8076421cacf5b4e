"""Two-level Lorentzian gain dispersion and singularity loci in the
(wavelength, resonance-gain) plane.

The pump level enters only through the resonance gain coefficient g0
(equivalently kappa0, the imaginary part of the index at the resonance
wavelength); the microscopic population densities are absorbed into the
plasma-frequency parameter omega_p_hat^2 = 2 n0 gamma_hat kappa0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Polarization
from .solver import (_angle_terms, _closed_form_gain, _modulus_kernel,
                     _phase_k, _phase_wavelength, _residual, _solve_kappa)

LOCUS_RESIDUAL_TOL = 1e-10
LOCUS_ROUNDS = 50          # cap on wavelength updates (8-22 for L 20um-2mm)


@dataclass(frozen=True)
class TwoLevelMedium:
    """Doped host with a single Lorentzian gain line."""

    n0: float                 # host real index
    lambda0: float            # resonance wavelength, m
    gamma_hat: float          # damping / resonance frequency

    def __post_init__(self) -> None:
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")
        if self.lambda0 <= 0:
            raise ValueError("lambda0 must be positive")
        if not 0 < self.gamma_hat < 1:
            raise ValueError("gamma_hat must lie in (0, 1)")


@dataclass(frozen=True)
class LocusPoint:
    """One spectral singularity of the dispersive slab."""

    wavelength: float   # m
    g0: float           # resonance gain coefficient, 1/m
    m: int
    residual: float


def index_squared(omega_hat: float, medium: TwoLevelMedium,
                  omega_p_hat_sq: float) -> complex:
    """Full two-level permittivity n^2 = n0^2 - wp^2/(w^2 - 1 + i gamma w)."""
    if np.any(np.asarray(omega_hat) <= 0):
        raise ValueError("omega_hat must be positive")
    denom = omega_hat ** 2 - 1.0 + 1j * medium.gamma_hat * omega_hat
    return medium.n0 ** 2 - omega_p_hat_sq / denom


def _lorentz_factors(omega_hat: float, gamma_hat: float) -> tuple[float, float]:
    d = (1.0 - omega_hat ** 2) ** 2 + (gamma_hat * omega_hat) ** 2
    f1 = gamma_hat * (1.0 - omega_hat ** 2) / d
    f2 = gamma_hat ** 2 * omega_hat / d
    return f1, f2


def linearized_index(omega_hat: float, medium: TwoLevelMedium,
                     kappa0: float) -> tuple[float, float]:
    """First-order-in-kappa0 index: eta = n0 + kappa0 f1, kappa = kappa0 f2."""
    if np.any(np.asarray(omega_hat) <= 0):
        raise ValueError("omega_hat must be positive")
    f1, f2 = _lorentz_factors(omega_hat, medium.gamma_hat)
    return medium.n0 + kappa0 * f1, kappa0 * f2


def g0_from_kappa0(medium: TwoLevelMedium, kappa0: float) -> float:
    """Resonance gain of kappa0, g0 = -4 pi kappa0 / lambda0."""
    return -4.0 * math.pi * kappa0 / medium.lambda0


def central_mode_number(medium: TwoLevelMedium, thickness: float,
                        theta_deg: float) -> int:
    """Mode number whose dispersion-free wavelength is closest to resonance."""
    npr = math.sqrt(medium.n0 ** 2
                    - math.sin(math.radians(theta_deg)) ** 2)
    return max(1, round(2.0 * thickness * npr / medium.lambda0))


def _index_map(medium: TwoLevelMedium, wavelength, full_model: bool):
    """kappa0 -> slab index (eta, kappa) at fixed wavelengths, elementwise."""
    omega_hat = medium.lambda0 / wavelength
    if not full_model:
        return lambda kappa0: linearized_index(omega_hat, medium, kappa0)

    def index(kappa0):
        n = np.sqrt(index_squared(omega_hat, medium, 2.0 * medium.n0
                                  * medium.gamma_hat * kappa0))
        return n.real, n.imag
    return index


def trace_locus(medium: TwoLevelMedium, thickness: float, theta_deg: float,
                polarization: Polarization, m_values,
                g0_cap: float | None = None,
                full_model: bool = False
                ) -> tuple[list[LocusPoint], list[int]]:
    """Singular points of the given modes with the dispersive index.

    All modes start at their dispersion-free wavelengths 2 L eta'/m and are
    solved together: at fixed wavelengths, mode m's kappa0 comes from the
    labelled kappa solve of solve_singularity; the phase condition then moves
    each mode to its exact wavelength, until no wavelength moves.  Modes with
    m < 1, no solution, g0 <= 0 or a residual above LOCUS_RESIDUAL_TOL are
    returned second; with g0_cap set, points above the cap are dropped.
    """
    m_values = list(m_values)
    if not m_values:
        raise ValueError("m_values must be nonempty")
    with np.errstate(all="ignore"):          # failed modes carry NaN
        m = np.where(np.array(m_values) >= 1, m_values, np.nan)
        lam = 2.0 * thickness * math.sqrt(
            medium.n0 ** 2 - math.sin(math.radians(theta_deg)) ** 2) / m
        angle = _angle_terms(theta_deg)
        kappa0 = -_closed_form_gain(medium.n0, angle, thickness,
                                    polarization) * lam / (4.0 * math.pi)
        for _ in range(LOCUS_ROUNDS):
            index = _index_map(medium, lam, full_model)
            kappa0 = _solve_kappa(index, _phase_k(m, thickness), angle,
                                  thickness, polarization, kappa0)
            npr, r = _modulus_kernel(*index(kappa0), angle, polarization)
            lam, last = _phase_wavelength(npr, r, m, thickness), lam
            if not np.any(np.abs(lam - last) > 1e-15 * lam):   # NaN: failed
                break
        npr, r = _modulus_kernel(*_index_map(medium, lam, full_model)(
            kappa0), angle, polarization)
        residual = np.abs(_residual(npr, r, 2.0 * math.pi / lam, thickness))
        g0 = g0_from_kappa0(medium, kappa0)
        ok = (residual <= LOCUS_RESIDUAL_TOL) & (g0 > 0)
    points = [LocusPoint(*values) for values, good in zip(
        zip(lam.tolist(), g0.tolist(), m_values, residual.tolist()), ok)
        if good and (g0_cap is None or values[1] <= g0_cap)]
    points.sort(key=lambda p: p.m)
    return points, [mv for mv, good in zip(m_values, ok) if not good]
