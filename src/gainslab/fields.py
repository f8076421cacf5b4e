"""Singular (purely outgoing) field profiles, Poynting vector, and energy density.

At a spectral singularity the incoming amplitudes vanish (a0 = b2 = 0) and
the slab emits coherently from both faces.  The z-dependence of the fields
is carried by the envelope pair

    U_pm(u, s) = [ (u-1)^(1-s) (u+1)^s +- (u-1)^s (u+1)^(1-s) ] / 2,

with s = z/L and principal complex powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EPSILON_0, MU_0, Polarization, SlabScenario, Z_0, u_parameter
from .solver import SingularityPoint
from .transfer import assemble_fields


@dataclass(frozen=True)
class SingularFieldContext:
    """A solved singular point plus the free outgoing amplitude b0."""

    point: SingularityPoint
    b0: complex = 1.0 + 0.0j

    @property
    def scenario(self) -> SlabScenario:
        return self.point.scenario

    @property
    def thickness(self) -> float:
        return self.point.thickness

    @property
    def poynting_out(self) -> float:
        """|<S>| outside the slab."""
        if self.point.polarization is Polarization.TE:
            return abs(self.b0) ** 2 / (2.0 * Z_0)
        return Z_0 * abs(self.b0) ** 2 / 2.0

    @property
    def energy_out(self) -> float:
        """<u> outside the slab."""
        if self.point.polarization is Polarization.TE:
            return EPSILON_0 * abs(self.b0) ** 2 / 2.0
        return MU_0 * abs(self.b0) ** 2 / 2.0


def u_pm(u: complex, s, sign: int):
    """Envelope pair U_+ (sign=+1) / U_- (sign=-1) at normalized depth s."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if u == 1 or u == -1:
        raise ValueError("u = +-1 makes the fractional powers degenerate")
    s = np.asarray(s)
    if np.any((s < 0) | (s > 1)):
        raise ValueError("normalized depth must lie in [0, 1]")
    um = np.complex128(u - 1.0)
    up = np.complex128(u + 1.0)
    first = um ** (1.0 - s) * up ** s
    second = um ** s * up ** (1.0 - s)
    return 0.5 * (first + sign * second)


def singular_fields(ctx: SingularFieldContext, x, z):
    """Complex E and H three-vectors of the singular wave, shape (..., 3).

    The profile pair is b0 (U_+, U_-)/u inside the slab and the outgoing
    wave outside: b0 e^{-i k_z z} (odd part negated) on the left and
    b0 e^{i k_z (z - L)} on the right.
    """
    point = ctx.point
    wave = point.wave
    L = point.thickness
    z = np.asarray(z, dtype=float)
    u = u_parameter(point.medium, point.theta_deg, point.polarization)
    left = z < 0
    inside = (z >= 0) & (z <= L)
    s = np.where(inside, z / L, 0.0)
    out = ctx.b0 * np.where(left, np.exp(-1j * wave.k_z * z),
                            np.exp(1j * wave.k_z * (z - L)))
    psi = np.where(inside, ctx.b0 * u_pm(u, s, +1) / u, out)
    psi_odd = np.where(inside, ctx.b0 * u_pm(u, s, -1) / u,
                       np.where(left, -out, out))
    return assemble_fields(ctx.scenario, wave, psi, psi_odd, x, z)


def _interior_coefficients(ctx: SingularFieldContext, z):
    """X(z), Z(z), U(z) on 0 <= z <= L for the closed-form S and u."""
    point = ctx.point
    s = np.asarray(z, dtype=float) / ctx.thickness
    u = u_parameter(point.medium, point.theta_deg, point.polarization)
    ntil = u_parameter(point.medium, point.theta_deg, Polarization.TE)
    up = u_pm(u, s, +1)
    um = u_pm(u, s, -1)
    th = math.radians(point.theta_deg)
    sin2, cos2 = math.sin(th) ** 2, math.cos(th) ** 2
    n2 = point.medium.n ** 2
    abs_ntil2 = abs(ntil) ** 2
    if point.polarization is Polarization.TE:
        coef_x = np.abs(up / ntil) ** 2
        coef_z = np.real(up * np.conj(um) / ntil)
        coef_u = ((n2.real + sin2) * np.abs(up) ** 2
                  + cos2 * np.abs(ntil * um) ** 2) / (2.0 * abs_ntil2)
    else:
        coef_x = (np.abs(up) ** 2 / abs_ntil2) * n2.real
        coef_z = np.real(n2 * up * np.conj(um) / ntil)
        coef_u = ((abs(n2) ** 2 + sin2 * n2.real) * np.abs(up) ** 2
                  + cos2 * n2.real * np.abs(ntil * um) ** 2) / (2.0 * abs_ntil2)
    return coef_x, coef_z, coef_u


def poynting(ctx: SingularFieldContext, z) -> np.ndarray:
    """Time-averaged Poynting vector (closed form), shape (..., 3), W/m^2."""
    z = np.asarray(z, dtype=float)
    th = math.radians(ctx.point.theta_deg)
    sin_t, cos_t = math.sin(th), math.cos(th)
    s_out = ctx.poynting_out
    left = z < 0
    right = z > ctx.thickness
    inside = ~(left | right)
    coef_x, coef_z, _ = _interior_coefficients(ctx, np.where(inside, z, 0.0))
    sx = np.where(inside, coef_x * sin_t, sin_t)
    sz = np.where(inside, coef_z * cos_t, np.where(left, -cos_t, cos_t))
    out = np.zeros(z.shape + (3,), dtype=float)
    out[..., 0] = s_out * sx
    out[..., 2] = s_out * sz
    return out


def poynting_angle_deg(ctx: SingularFieldContext, z):
    """Angle of <S> from the positive z axis, degrees (pi - theta on the left)."""
    s = poynting(ctx, np.atleast_1d(np.asarray(z, dtype=float)))
    ang = np.degrees(np.arctan2(s[..., 0], s[..., 2]))
    return ang if np.ndim(z) else float(ang[0])


def tilde_theta_deg(ctx: SingularFieldContext) -> float:
    """TM boundary emission angle inside the slab, arctan(tan(theta) Re(n^2)/|n|^4)."""
    th = math.radians(ctx.point.theta_deg)
    n = ctx.point.medium.n
    return math.degrees(math.atan(math.tan(th) * (n ** 2).real / abs(n) ** 4))


def energy_density(ctx: SingularFieldContext, z):
    """Time-averaged energy density (closed form), J/m^3."""
    z = np.asarray(z, dtype=float)
    inside = (z >= 0) & (z <= ctx.thickness)
    _, _, coef_u = _interior_coefficients(ctx, np.where(inside, z, 0.0))
    result = ctx.energy_out * np.where(inside, coef_u, 1.0)
    return result if z.ndim else float(result)


def poynting_from_fields(ctx: SingularFieldContext, x, z) -> np.ndarray:
    """Direct (1/2) Re(E x H*) from the singular field components."""
    E, H = singular_fields(ctx, x, z)
    return 0.5 * np.real(np.cross(E, np.conj(H)))


def energy_density_from_fields(ctx: SingularFieldContext, x, z):
    """Direct (1/4)(eps0 Re(zeta)|E|^2 + mu0 |H|^2) from the field components."""
    E, H = singular_fields(ctx, x, z)
    zeta = ctx.scenario.index_profile(z)
    return 0.25 * (EPSILON_0 * np.real(zeta)
                   * np.sum(np.abs(E) ** 2, axis=-1)
                   + MU_0 * np.sum(np.abs(H) ** 2, axis=-1))
