"""2x2 transfer matrix of the slab, scattering amplitudes, and general fields.

The matrix M maps the plane-wave amplitudes on the left of the slab to those
on the right, (a2, b2)^T = M (a0, b0)^T, and has unit determinant.  Its
entries are assembled from cos/sin of the complex phase k~*L rather
than from exponential differences, which avoids cancellation for large
|Im(k~*L)|.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    Polarization,
    SlabScenario,
    WaveSpec,
    Z_0,
    incidence,
    u_parameter,
)

# hyperbolic growth of cos/sin overflows double precision past this phase
_MAX_IMAG_PHASE = 700.0
# |M22| below this fraction of the largest entry counts as a spectral singularity
SINGULAR_TOL = 1e-12
# ... as does |M22| below this multiple of k|dM22/dk|: its change over 8 ulps of k
SINGULAR_SLOPE_TOL = 8 * sys.float_info.epsilon


class SpectralSingularityError(RuntimeError):
    """Raised when |M22| is too small for amplitudes to be meaningful."""


@dataclass(frozen=True)
class TransferMatrix:
    m11: complex
    m12: complex
    m21: complex
    m22: complex
    k_dm22_dk: complex = 0.0   # k dM22/dk at fixed angle and index

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def scale(self) -> float:
        """Magnitude of the largest entry, floored at 1; reference for tolerances."""
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22), 1.0)

    @property
    def singular(self) -> bool:
        """|M22| at the rounding level of the entries or of k: a spectral
        singularity as far as double precision can tell."""
        m22 = abs(self.m22)
        scale = max(abs(self.m11), abs(self.m12), abs(self.m21), m22, 1.0)
        return (m22 < SINGULAR_TOL * scale
                or m22 < SINGULAR_SLOPE_TOL * abs(self.k_dm22_dk))


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
    k = wave.k
    n_p, u, _, cos_t = incidence(scenario.medium, wave.theta_deg,
                                 wave.polarization)
    delta = k * n_p * L
    if abs(delta.imag) > _MAX_IMAG_PHASE:
        raise OverflowError(
            f"|Im(k~ * L)| = {abs(delta.imag):.3g} exceeds the double-precision "
            "range of cosh/sinh"
        )
    cos_d = cmath.cos(delta)
    sin_d = cmath.sin(delta)
    inv_u = 1.0 / u
    half_sum = 0.5j * (u + inv_u)
    u_sum = half_sum * sin_d
    u_dif = 0.5j * (u - inv_u) * sin_d
    kz_L = k * cos_t * L
    phase = cmath.exp(1j * kz_L)
    m22 = (cos_d - u_sum) * phase
    # delta and k_z L are both proportional to k
    k_dm22_dk = 1j * kz_L * m22 - delta * (sin_d + half_sum * cos_d) * phase
    # positional: keyword parsing costs about a quarter of the construction
    return TransferMatrix((cos_d + u_sum) / phase, u_dif / phase,
                          -u_dif * phase, m22, k_dm22_dk)


def scattering_amplitudes(matrix: TransferMatrix) -> ScatteringAmplitudes:
    """Reflection/transmission amplitudes from the matrix entries.

    Raises SpectralSingularityError when the matrix is singular, i.e. the
    system is at (or numerically indistinguishable from) a spectral
    singularity.
    """
    if matrix.singular:
        raise SpectralSingularityError(
            f"|M22| = {abs(matrix.m22):.3g} below tolerance: at spectral singularity"
        )
    m12, m21, m22 = matrix.m12, matrix.m21, matrix.m22
    # t_left = det M / M22 = 1 / M22: the same vacuum bounds both sides
    return ScatteringAmplitudes(-m21 / m22, m12 / m22, 1.0 / m22, 1.0 / m22)


def propagate_coefficients(scenario: SlabScenario, wave: WaveSpec,
                           a0: complex = 0.0, b2: complex = 0.0
                           ) -> CoefficientSet:
    """Solve for all six amplitudes given the incoming ones (a0 from the left,
    b2 from the right)."""
    if a0 == 0 and b2 == 0:
        raise ValueError("at least one incoming amplitude must be nonzero")
    m = build_transfer_matrix(scenario, wave)
    if m.singular:
        raise SpectralSingularityError(
            "amplitude system is singular: at spectral singularity"
        )
    b0 = (b2 - m.m21 * a0) / m.m22
    a2 = (a0 + m.m12 * b2) / m.m22      # M11 a0 + M12 b0 with det M = 1
    # interior amplitudes from the z=0 matching conditions
    u = u_parameter(scenario.medium, wave.theta_deg, wave.polarization)
    total = a0 + b0
    diff = (b0 - a0) / u
    a1 = 0.5 * (total - diff)
    b1 = 0.5 * (total + diff)
    return CoefficientSet(a0=a0, b0=b0, a1=a1, b1=b1, a2=a2, b2=b2)


def _psi(coeffs: CoefficientSet, scenario: SlabScenario, wave: WaveSpec, z):
    """Scalar wave profile (E_y for TE, H_y for TM) and its odd companion."""
    kt = wave.k * incidence(scenario.medium, wave.theta_deg,
                            wave.polarization)[0]
    kz = wave.k_z
    L = scenario.thickness
    z = np.asarray(z, dtype=float)
    inside = (z >= 0) & (z <= L)
    left = z < 0
    # interior waves at z = 0 outside the slab, where they are not selected
    # and would overflow far out; asarray rounds a 0-d z as an array does
    e_in_p = np.asarray(np.exp(1j * kt * np.where(inside, z, 0.0)))
    e_in_m = np.asarray(np.exp(-1j * kt * np.where(inside, z, 0.0)))
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
    inside = (z >= 0) & (z <= scenario.thickness)
    n_p, _, sin_t, cos_t = incidence(scenario.medium, wave.theta_deg,
                                     wave.polarization)
    phase_x = np.exp(1j * (wave.k * sin_t) * x)
    # TE: E_y = psi, H_x = -psi_odd n'/Z_0 (cos theta outside), H_z = psi sin/Z_0
    # TM: H_y = psi, E_x = Z_0 psi_odd n'/n^2 (cos theta outside),
    #     E_z = -Z_0 psi sin/n^2 (1 for n^2 outside); all times e^{i k_x x}
    if wave.polarization is Polarization.TE:
        odd_in, odd_out = -n_p / Z_0, -cos_t / Z_0
        long_in = long_out = sin_t / Z_0
    else:
        n2 = scenario.medium.n ** 2
        odd_in, odd_out = Z_0 * n_p / n2, Z_0 * cos_t
        long_in, long_out = -Z_0 * sin_t / n2, -Z_0 * sin_t

    # component-major: each component contiguous, the three zero ones untouched
    shape = (3,) + np.broadcast_shapes(psi.shape, phase_x.shape)
    E = np.zeros(shape, dtype=complex)
    H = np.zeros(shape, dtype=complex)
    main, other = (E, H) if wave.polarization is Polarization.TE else (H, E)
    # [i, ...] keeps a 0-d component an array that out= can write to
    transverse, odd, longitudinal = main[1, ...], other[0, ...], other[2, ...]
    np.multiply(psi, phase_x, out=transverse)
    # longitudinal holds psi_odd e^{i k_x x} first: numpy rounds a one-element
    # in-place complex product differently from the same product on an array
    np.multiply(psi_odd, phase_x, out=longitudinal)
    np.multiply(longitudinal, np.where(inside, odd_in, odd_out), out=odd)
    np.multiply(transverse, np.where(inside, long_in, long_out),
                out=longitudinal)
    return np.moveaxis(E, 0, -1), np.moveaxis(H, 0, -1)
