"""Two-level Lorentzian gain dispersion and singularity loci in the
(wavelength, resonance-gain) plane.

The pump level enters only through the resonance gain coefficient g0
(equivalently kappa0, the imaginary part of the index at the resonance
wavelength); the microscopic population densities are absorbed into the
plasma-frequency parameter omega_p_hat^2 = 2 n0 gamma_hat kappa0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GainMedium, Polarization
from .solver import ConvergenceError, singularity_residual, solve_singularity

LOCUS_RESIDUAL_TOL = 1e-10


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
    if omega_hat <= 0:
        raise ValueError("omega_hat must be positive")
    denom = omega_hat ** 2 - 1.0 + 1j * medium.gamma_hat * omega_hat
    return medium.n0 ** 2 - omega_p_hat_sq / denom


def omega_p_hat_sq_from_kappa0(medium: TwoLevelMedium, kappa0: float) -> float:
    """Leading-order plasma parameter, 2 n0 gamma_hat kappa0 (< 0 for inversion)."""
    if abs(kappa0) > 1e-2 * medium.n0:
        warnings.warn("|kappa0| is large relative to n0; linearization dubious")
    return 2.0 * medium.n0 * medium.gamma_hat * kappa0


def _lorentz_factors(omega_hat: float, gamma_hat: float) -> tuple[float, float]:
    d = (1.0 - omega_hat ** 2) ** 2 + (gamma_hat * omega_hat) ** 2
    f1 = gamma_hat * (1.0 - omega_hat ** 2) / d
    f2 = gamma_hat ** 2 * omega_hat / d
    return f1, f2


def linearized_index(omega_hat: float, medium: TwoLevelMedium,
                     kappa0: float) -> tuple[float, float]:
    """First-order-in-kappa0 index: eta = n0 + kappa0 f1, kappa = kappa0 f2."""
    if omega_hat <= 0:
        raise ValueError("omega_hat must be positive")
    f1, f2 = _lorentz_factors(omega_hat, medium.gamma_hat)
    return medium.n0 + kappa0 * f1, kappa0 * f2


def kappa0_from_g0(medium: TwoLevelMedium, g0: float) -> float:
    """kappa0 = -lambda0 g0 / (4 pi)."""
    return -medium.lambda0 * g0 / (4.0 * math.pi)


def g0_from_kappa0(medium: TwoLevelMedium, kappa0: float) -> float:
    return -4.0 * math.pi * kappa0 / medium.lambda0


def dispersive_medium(wavelength: float, medium: TwoLevelMedium,
                      g0: float, full_model: bool = False) -> GainMedium:
    """Slab index at the given wavelength and pump level."""
    omega_hat = medium.lambda0 / wavelength
    kappa0 = kappa0_from_g0(medium, g0)
    if full_model:
        n = np.sqrt(np.complex128(index_squared(
            omega_hat, medium, omega_p_hat_sq_from_kappa0(medium, kappa0))))
        return GainMedium(n.real, n.imag)
    eta, kappa = linearized_index(omega_hat, medium, kappa0)
    return GainMedium(eta, kappa)


def central_mode_number(medium: TwoLevelMedium, thickness: float,
                        theta_deg: float) -> int:
    """Mode number whose dispersion-free wavelength is closest to resonance."""
    npr = math.sqrt(medium.n0 ** 2
                    - math.sin(math.radians(theta_deg)) ** 2)
    return max(1, round(2.0 * thickness * npr / medium.lambda0))


def trace_locus(medium: TwoLevelMedium, thickness: float, theta_deg: float,
                polarization: Polarization, m_values,
                g0_cap: float | None = None,
                full_model: bool = False
                ) -> tuple[list[LocusPoint], list[int]]:
    """Per-mode singularity solves with the dispersive index.

    Each mode is seeded independently from its dispersion-free solution; a
    failed mode is recorded in the second return value, never interpolated.
    With g0_cap set, points above the cap are dropped.
    """
    m_values = list(m_values)
    if not m_values:
        raise ValueError("m_values must be nonempty")
    points: list[LocusPoint] = []
    failed: list[int] = []
    for m in m_values:
        try:
            points.append(_solve_mode(medium, thickness, theta_deg,
                                      polarization, m, full_model))
        except (ConvergenceError, ValueError):
            failed.append(m)
    points.sort(key=lambda p: p.m)
    if g0_cap is not None:
        points = [p for p in points if p.g0 <= g0_cap]
    return points, failed


def _solve_mode(medium: TwoLevelMedium, thickness: float, theta_deg: float,
                polarization: Polarization, m: int,
                full_model: bool) -> LocusPoint:
    # dispersion-free seed at the host index
    seed = solve_singularity(medium.n0, theta_deg, thickness, polarization,
                             m=m)
    omega_hat = medium.lambda0 / seed.wavelength
    _, f2 = _lorentz_factors(omega_hat, medium.gamma_hat)
    if f2 <= 0:
        raise ConvergenceError(f"gain line does not reach mode m = {m}")
    g0_seed = g0_from_kappa0(medium, seed.kappa / f2)
    lam0 = seed.wavelength

    def fun(x):
        lam = lam0 * x[0]
        g0 = g0_seed * x[1]
        slab = dispersive_medium(lam, medium, g0, full_model)
        res = singularity_residual(slab, theta_deg, thickness,
                                   2.0 * math.pi / lam, polarization)
        return [res.real, res.imag]

    from scipy.optimize import root   # slow to import; only the polishes use it
    sol = root(fun, [1.0, 1.0], method="hybr", options={"xtol": 1e-14})
    lam = lam0 * sol.x[0]
    g0 = g0_seed * sol.x[1]
    residual = math.hypot(*fun(sol.x))
    if residual > LOCUS_RESIDUAL_TOL or g0 <= 0:
        raise ConvergenceError(
            f"no convergence for mode m = {m}: residual = {residual:.3g}")
    return LocusPoint(wavelength=lam, g0=g0, m=m, residual=residual)
