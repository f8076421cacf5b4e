"""Singular (purely outgoing) field profiles, Poynting vector, and energy density.

At a spectral singularity the incoming amplitudes vanish (a0 = b2 = 0) and
the slab emits coherently from both faces.  The z-dependence of the fields
is carried by the envelope pair

    U_pm(u, s) = [ (u-1)^(1-s) (u+1)^s +- (u-1)^s (u+1)^(1-s) ] / 2,

with s = z/L and principal complex powers.  Both are evaluated from one
complex exponential per depth, w = exp(s (Log(u+1) - Log(u-1))):

    U_pm = [ (u-1) w +- (u+1)/w ] / 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (EPSILON_0, MU_0, Polarization, SlabScenario, Z_0,
                   incidence, u_parameter)
from .solver import SingularityPoint
from .transfer import assemble_fields


@dataclass(frozen=True)
class SingularFieldContext:
    """A solved singular point, with unit outgoing amplitude b0 = 1."""

    point: SingularityPoint

    @property
    def scenario(self) -> SlabScenario:
        return self.point.scenario

    @property
    def poynting_out(self) -> float:
        """|<S>| outside the slab."""
        if self.point.polarization is Polarization.TE:
            return 1.0 / (2.0 * Z_0)
        return Z_0 / 2.0

    @property
    def energy_out(self) -> float:
        """<u> outside the slab."""
        if self.point.polarization is Polarization.TE:
            return EPSILON_0 / 2.0
        return MU_0 / 2.0


def _envelopes(u: complex, s):
    """Envelope pair (U_+, U_-) at normalized depths s in [0, 1].

    Log(u+1) - Log(u-1) gives the principal powers for every u;
    Log((u+1)/(u-1)) is 2 pi i off where the two arguments straddle the
    branch cut (real u < 1 with a negative-zero imaginary part).
    """
    w = np.exp(s * (cmath.log(u + 1.0) - cmath.log(u - 1.0)))
    first = 0.5 * (u - 1.0) * w
    second = 0.5 * (u + 1.0) / w
    return first + second, first - second


def _abs2(a):
    return a.real ** 2 + a.imag ** 2


def singular_fields(ctx: SingularFieldContext, x, z):
    """Complex E and H three-vectors of the singular wave, shape (..., 3).

    The profile pair is (U_+, U_-)/u inside the slab and the outgoing
    wave e^{i k_z d} outside, d being the distance to the nearer face
    (odd part negated on the left).
    """
    point, wave = ctx.point, ctx.point.wave
    L = point.thickness
    z = np.asarray(z, dtype=float)
    u = u_parameter(point.medium, point.theta_deg, point.polarization)
    inside = (z >= 0) & (z <= L)
    outside = ~inside
    psi = np.empty(z.shape, dtype=complex)
    psi_odd = np.empty(z.shape, dtype=complex)
    plus, minus = _envelopes(u, z[inside] / L)
    psi[inside] = 1.0 / u * plus
    psi_odd[inside] = 1.0 / u * minus
    z_out = z[outside]
    left = z_out < 0
    phase = wave.k_z * np.where(left, -z_out, z_out - L)
    out = np.empty(phase.shape, dtype=complex)   # e^{i k_z d} as cos + i sin
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    psi[outside] = out
    psi_odd[outside] = np.where(left, -out, out)
    return assemble_fields(ctx.scenario, wave, psi, psi_odd, x, z)


def _interior(ctx: SingularFieldContext, z):
    """Interior mask of z, U_+ and U_- at the interior points, the scalars
    (a, b, c, d) of the closed forms there, in units of the exterior values:
    S_x = a |U_+|^2 sin(theta), S_z = Re(b U_+ conj(U_-)) cos(theta) and
    u = c |U_+|^2 + d |U_-|^2, and (sin(theta), cos(theta))."""
    point = ctx.point
    L = point.thickness
    n_p, u, sin_t, cos_t = incidence(point.medium, point.theta_deg,
                                     point.polarization)
    ntil = n_p / cos_t
    inside = (z >= 0) & (z <= L)
    up, um = _envelopes(u, z[inside] / L)
    sin2, cos2 = sin_t ** 2, cos_t ** 2
    n2 = point.medium.n ** 2
    abs_ntil2 = abs(ntil) ** 2
    if point.polarization is Polarization.TE:
        weights = (1.0 / abs_ntil2, 1.0 / ntil,
                   (n2.real + sin2) / (2.0 * abs_ntil2), cos2 / 2.0)
    else:
        weights = (n2.real / abs_ntil2, n2 / ntil,
                   (abs(n2) ** 2 + sin2 * n2.real) / (2.0 * abs_ntil2),
                   cos2 * n2.real / 2.0)
    return inside, up, um, weights, (sin_t, cos_t)


def poynting(ctx: SingularFieldContext, z) -> np.ndarray:
    """Time-averaged Poynting vector (closed form), shape (..., 3), W/m^2."""
    z = np.asarray(z, dtype=float)
    s_out = ctx.poynting_out
    inside, up, um, (a, b, _, _), (sin_t, cos_t) = _interior(ctx, z)
    out = np.zeros((3,) + z.shape)     # component-major, like the fields
    out[0, ...] = s_out * sin_t
    out[2, ...] = np.where(z < 0, s_out * -cos_t, s_out * cos_t)
    out[0, inside] = s_out * (a * _abs2(up) * sin_t)
    out[2, inside] = s_out * (np.real(b * up * np.conj(um)) * cos_t)
    return np.moveaxis(out, 0, -1)


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
    inside, up, um, (_, _, c, d), _ = _interior(ctx, z)
    result = np.full(z.shape, ctx.energy_out)
    result[inside] = ctx.energy_out * (c * _abs2(up) + d * _abs2(um))
    return result if z.ndim else float(result)


def poynting_from_fields(ctx: SingularFieldContext, x, z) -> np.ndarray:
    """Direct (1/2) Re(E x H*) from the singular field components."""
    E, H = singular_fields(ctx, x, z)
    # Re(E x H*) = Re E x Re H + Im E x Im H, written out per component
    out = np.empty((3,) + E.shape[:-1])     # component-major
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out[i, ...] = (E[..., j].real * H[..., k].real
                       + E[..., j].imag * H[..., k].imag
                       - E[..., k].real * H[..., j].real
                       - E[..., k].imag * H[..., j].imag)
    return np.moveaxis(0.5 * out, 0, -1)


def energy_density_from_fields(ctx: SingularFieldContext, x, z):
    """Direct (1/4)(eps0 Re(zeta)|E|^2 + mu0 |H|^2) from the field components."""
    E, H = singular_fields(ctx, x, z)
    zeta = ctx.scenario.index_profile(z)
    e2, h2 = (_abs2(f[..., 0]) + _abs2(f[..., 1]) + _abs2(f[..., 2])
              for f in (E, H))     # one contiguous component at a time
    return 0.25 * (EPSILON_0 * np.real(zeta) * e2 + MU_0 * h2)
