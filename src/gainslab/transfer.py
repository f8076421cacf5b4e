"""2x2 transfer matrix of the slab, scattering amplitudes, and general fields.

The matrix M maps the plane-wave amplitudes on the left of the slab to those
on the right, (a2, b2)^T = M (a0, b0)^T, and has unit determinant.  Its
entries are assembled from cos/sin of the complex phase k_tilde*L rather
than from exponential differences, which avoids cancellation for large
|Im(k_tilde*L)|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Polarization,
    SlabScenario,
    WaveSpec,
    Z_0,
    k_tilde,
    n_prime,
    u_parameter,
)

# hyperbolic growth of cos/sin overflows double precision past this phase
_MAX_IMAG_PHASE = 700.0
# |M22| below this fraction of the largest entry counts as a spectral singularity
SINGULAR_TOL = 1e-12


class SpectralSingularityError(RuntimeError):
    """Raised when |M22| is too small for amplitudes to be meaningful."""


@dataclass(frozen=True)
class TransferMatrix:
    m11: complex
    m12: complex
    m21: complex
    m22: complex

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def scale(self) -> float:
        """Magnitude of the largest entry, floored at 1; reference for tolerances."""
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22), 1.0)


@dataclass(frozen=True)
class ScatteringAmplitudes:
    r_left: complex
    r_right: complex
    t_left: complex
    t_right: complex


@dataclass(frozen=True)
class CoefficientSet:
    """Plane-wave amplitudes in the three regions (left, slab interior, right)."""

    a0: complex
    b0: complex
    a1: complex
    b1: complex
    a2: complex
    b2: complex


def build_transfer_matrix(scenario: SlabScenario, wave: WaveSpec) -> TransferMatrix:
    """Assemble M for the given slab and wave; same code path for TE and TM."""
    L = scenario.thickness
    u = u_parameter(scenario.medium, wave.theta_deg, wave.polarization)
    delta = k_tilde(scenario.medium, wave) * L
    if abs(delta.imag) > _MAX_IMAG_PHASE:
        raise OverflowError(
            f"|Im(k_tilde * L)| = {abs(delta.imag):.3g} exceeds the double-precision "
            "range of cosh/sinh"
        )
    cos_d = cmath.cos(delta)
    sin_d = cmath.sin(delta)
    u_sum = 0.5j * (u + 1.0 / u) * sin_d
    u_dif = 0.5j * (u - 1.0 / u) * sin_d
    phase = cmath.exp(1j * wave.k_z * L)
    return TransferMatrix(
        m11=(cos_d + u_sum) / phase,
        m12=u_dif / phase,
        m21=-u_dif * phase,
        m22=(cos_d - u_sum) * phase,
    )


def scattering_amplitudes(matrix: TransferMatrix) -> ScatteringAmplitudes:
    """Reflection/transmission amplitudes from the matrix entries.

    Raises SpectralSingularityError when |M22| < SINGULAR_TOL * scale, i.e.
    the system is at (or numerically indistinguishable from) a spectral
    singularity.
    """
    if abs(matrix.m22) < SINGULAR_TOL * matrix.scale:
        raise SpectralSingularityError(
            f"|M22| = {abs(matrix.m22):.3g} below tolerance: at spectral singularity"
        )
    return ScatteringAmplitudes(
        r_left=-matrix.m21 / matrix.m22,
        r_right=matrix.m12 / matrix.m22,
        t_left=matrix.det / matrix.m22,
        t_right=1.0 / matrix.m22,
    )


def propagate_coefficients(scenario: SlabScenario, wave: WaveSpec,
                           a0: complex = 0.0, b2: complex = 0.0
                           ) -> CoefficientSet:
    """Solve for all six amplitudes given the incoming ones (a0 from the left,
    b2 from the right)."""
    if a0 == 0 and b2 == 0:
        raise ValueError("at least one incoming amplitude must be nonzero")
    m = build_transfer_matrix(scenario, wave)
    if abs(m.m22) < SINGULAR_TOL * m.scale:
        raise SpectralSingularityError(
            "amplitude system is singular: at spectral singularity"
        )
    b0 = (b2 - m.m21 * a0) / m.m22
    a2 = m.m11 * a0 + m.m12 * b0
    # interior amplitudes from the z=0 matching conditions
    u = u_parameter(scenario.medium, wave.theta_deg, wave.polarization)
    total = a0 + b0
    diff = (b0 - a0) / u
    a1 = 0.5 * (total - diff)
    b1 = 0.5 * (total + diff)
    return CoefficientSet(a0=a0, b0=b0, a1=a1, b1=b1, a2=a2, b2=b2)


def _psi(coeffs: CoefficientSet, scenario: SlabScenario, wave: WaveSpec, z):
    """Scalar wave profile (E_y for TE, H_y for TM) and its odd companion."""
    kt = k_tilde(scenario.medium, wave)
    kz = wave.k_z
    L = scenario.thickness
    z = np.asarray(z, dtype=float)
    inside = (z >= 0) & (z <= L)
    left = z < 0
    # interior expressions are only evaluated where selected
    e_in_p = np.where(inside, np.exp(1j * kt * z), 0.0)
    e_in_m = np.where(inside, np.exp(-1j * kt * z), 0.0)
    e_out_p = np.exp(1j * kz * z)
    e_out_m = np.exp(-1j * kz * z)
    a_out = np.where(left, coeffs.a0, coeffs.a2)
    b_out = np.where(left, coeffs.b0, coeffs.b2)
    psi = np.where(inside,
                   coeffs.a1 * e_in_p + coeffs.b1 * e_in_m,
                   a_out * e_out_p + b_out * e_out_m)
    psi_odd = np.where(inside,
                       coeffs.a1 * e_in_p - coeffs.b1 * e_in_m,
                       a_out * e_out_p - b_out * e_out_m)
    return psi, psi_odd


def general_fields(scenario: SlabScenario, wave: WaveSpec,
                   coeffs: CoefficientSet, x, z):
    """Full complex E and H three-vectors of a propagated (non-singular) solution.

    Returns (E, H) arrays of shape (..., 3) for broadcastable x, z.
    """
    psi, psi_odd = _psi(coeffs, scenario, wave, z)
    return assemble_fields(scenario, wave, psi, psi_odd, x, z)


def assemble_fields(scenario: SlabScenario, wave: WaveSpec, psi, psi_odd,
                    x, z):
    """E and H three-vectors from a scalar profile pair on the z axis.

    psi is E_y (TE) or H_y (TM) without its x phase; psi_odd is its odd
    companion (forward minus backward wave), which sets H_x (TE) or E_x (TM).
    This is the only place the TE/TM component formulas live.  Returns (E, H)
    arrays of shape (..., 3) for broadcastable x, z.
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    L = scenario.thickness
    inside = (z >= 0) & (z <= L)
    sin_t = math.sin(wave.theta_rad)
    cos_t = math.cos(wave.theta_rad)
    phase_x = np.exp(1j * wave.k_x * x)
    trans = np.where(inside, n_prime(scenario.medium, wave.theta_deg), cos_t) * phase_x
    zeta = scenario.index_profile(z)

    shape = np.broadcast_shapes(psi.shape, phase_x.shape)
    E = np.zeros(shape + (3,), dtype=complex)
    H = np.zeros(shape + (3,), dtype=complex)
    if wave.polarization is Polarization.TE:
        E[..., 1] = psi * phase_x
        H[..., 0] = -psi_odd * trans / Z_0
        H[..., 2] = sin_t * phase_x * psi / Z_0
    else:
        H[..., 1] = psi * phase_x
        E[..., 0] = Z_0 * psi_odd * trans / zeta
        E[..., 2] = -Z_0 * sin_t * phase_x * psi / zeta
    return E, H


def boundary_residuals(coeffs: CoefficientSet, scenario: SlabScenario,
                       wave: WaveSpec) -> float:
    """Largest relative residual of the four interface matching conditions.

    Each condition is normalized by the magnitude of its largest term, so the
    result is meaningful even when interior amplitudes grow exponentially.
    """
    u = u_parameter(scenario.medium, wave.theta_deg, wave.polarization)
    kt = k_tilde(scenario.medium, wave)
    kz = wave.k_z
    L = scenario.thickness
    ep, em = cmath.exp(1j * kt * L), cmath.exp(-1j * kt * L)
    fp, fm = cmath.exp(1j * kz * L), cmath.exp(-1j * kz * L)
    amp0 = max(abs(coeffs.a0), abs(coeffs.b0), abs(coeffs.a1), abs(coeffs.b1))
    phase = max(abs(ep), abs(em))
    ampL = max(abs(coeffs.a1), abs(coeffs.b1)) * phase
    ampL = max(ampL, abs(coeffs.a2), abs(coeffs.b2))
    conditions = [
        ((coeffs.a0, coeffs.b0), (coeffs.a1, coeffs.b1), amp0),
        ((coeffs.b0, -coeffs.a0), (u * coeffs.b1, -u * coeffs.a1),
         amp0 * max(abs(u), 1.0)),
        ((coeffs.a1 * ep, coeffs.b1 * em), (coeffs.a2 * fp, coeffs.b2 * fm),
         ampL),
        ((u * coeffs.a1 * ep, -u * coeffs.b1 * em),
         (coeffs.a2 * fp, -coeffs.b2 * fm), ampL * max(abs(u), 1.0)),
    ]
    worst = 0.0
    for lhs, rhs, scale in conditions:
        residual = abs(sum(lhs) - sum(rhs))
        worst = max(worst, residual / max(scale, 1e-300))
    return worst
