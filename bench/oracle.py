"""Independent evaluation of the paper's defining conditions.

Everything here is plain numpy written from the equations, never from the
package's helpers, so a change inside the package cannot change what its
results are checked against.  Polarization is passed as a bool (``tm``) for
the same reason.  All functions accept scalars or broadcastable arrays.

Conventions match the package: n = eta + i kappa with kappa < 0 for gain,
angles in degrees, lengths in meters, principal-branch square roots.
"""

from __future__ import annotations

import math

import numpy as np


def interface(eta, kappa, theta_deg, tm):
    """n' = sqrt(n^2 - sin^2 theta), u, and r = (u - 1)/(u + 1)."""
    n = eta + 1j * np.asarray(kappa, dtype=float)
    th = np.radians(theta_deg)
    cos_t = np.cos(th)
    npr = np.sqrt(n * n - np.sin(th) ** 2)
    u = npr / cos_t
    if tm:
        u = u / (n * n)
    return npr, u, (u - 1.0) / (u + 1.0)


def modulus_residual(eta, kappa, theta_deg, thickness, wavelength, tm):
    """Relative residual |k(kappa) - k| / k of the modulus condition
    k L Im(n') = ln|r| at the wavelength the threshold was solved for."""
    npr, _, r = interface(eta, kappa, theta_deg, tm)
    k = 2.0 * math.pi / wavelength
    with np.errstate(divide="ignore", invalid="ignore"):
        k_mod = np.log(np.abs(r)) / (thickness * npr.imag)
    return np.abs(k_mod - k) / k


def singular_condition(eta, kappa, theta_deg, thickness, wavelength, tm):
    """Residual of exp(-2i k n' L) = r^2 and the phase-condition mode label.

    Returns (absolute residual, residual relative to |r|^2, label), where
    label = (k L Re n' + arg r) / pi equals the mode number m at a solution.
    """
    npr, _, r = interface(eta, kappa, theta_deg, tm)
    k = 2.0 * math.pi / np.asarray(wavelength, dtype=float)
    r2 = r * r
    res = np.abs(np.exp(-2j * k * npr * thickness) - r2)
    label = (k * thickness * npr.real + np.angle(r)) / math.pi
    return res, res / np.abs(r2), label


def transfer_entries(eta, kappa, theta_deg, thickness, wavelength, tm):
    """(M11, M12, M21, M22) from the cos/sin closed form of the slab matrix."""
    npr, u, _ = interface(eta, kappa, theta_deg, tm)
    k = 2.0 * math.pi / np.asarray(wavelength, dtype=float)
    delta = k * npr * thickness
    phase = np.exp(1j * k * math.cos(math.radians(theta_deg)) * thickness)
    sin_d = np.sin(delta)
    u_sum = 0.5j * (u + 1.0 / u) * sin_d
    u_dif = 0.5j * (u - 1.0 / u) * sin_d
    cos_d = np.cos(delta)
    return ((cos_d + u_sum) / phase, u_dif / phase,
            -u_dif * phase, (cos_d - u_sum) * phase)


def two_level_index(wavelength, g0, n0, lambda0, gamma_hat):
    """Linearised two-level index (eta, kappa) at a wavelength and pump gain g0."""
    w = lambda0 / np.asarray(wavelength, dtype=float)
    d = (1.0 - w * w) ** 2 + (gamma_hat * w) ** 2
    kappa0 = -lambda0 * np.asarray(g0, dtype=float) / (4.0 * math.pi)
    return (n0 + kappa0 * gamma_hat * (1.0 - w * w) / d,
            kappa0 * gamma_hat ** 2 * w / d)


def central_mode(n0, lambda0, thickness, theta_deg):
    """Mode number whose dispersion-free wavelength is closest to lambda0."""
    npr = math.sqrt(n0 * n0 - math.sin(math.radians(theta_deg)) ** 2)
    return max(1, round(2.0 * thickness * npr / lambda0))


def shared_roots(wavelengths, spacing, tol=1e-3):
    """Mask of entries whose wavelength lies within tol mode spacings of
    another entry's: two mode labels carrying one root."""
    lam = np.asarray(wavelengths, dtype=float)
    mask = np.zeros(lam.shape, dtype=bool)
    if lam.size < 2:
        return mask
    order = np.argsort(lam)
    close = np.diff(lam[order]) < tol * spacing
    mask[order[:-1]] |= close
    mask[order[1:]] |= close
    return mask
