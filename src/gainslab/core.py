"""Physical constants, slab/medium/wave types, and the derived optical quantities.

Conventions used throughout the package:

* The complex refractive index is n = eta + i*kappa with kappa < 0 for an
  amplifying (gain) medium and kappa > 0 for a lossy one.
* All lengths are in meters, wavenumbers in rad/m, gains in 1/m.  Angles at
  the public API are in degrees (the natural unit for incidence angles);
  they are converted to radians at the point of use.
* Square roots of complex quantities are principal-branch (argument in
  (-pi/2, pi/2]), which is continuous in theta and kappa for the gain media
  this package targets (eta > 1, |kappa| small).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# CODATA vacuum constants
EPSILON_0 = 8.8541878128e-12   # F/m
MU_0 = 1.25663706212e-6        # H/m
Z_0 = math.sqrt(MU_0 / EPSILON_0)  # vacuum impedance, Ohm


class Polarization(str, Enum):
    """Orientation of the transverse field relative to the slab surface."""

    TE = "TE"   # electric field parallel to the slab
    TM = "TM"   # magnetic field parallel to the slab

    @property
    def ell(self) -> int:
        """Exponent of n in the interface reflection ratio (0 for TE, 2 for TM)."""
        return 0 if self is Polarization.TE else 2


@dataclass(frozen=True)
class GainMedium:
    """Homogeneous optically active medium, n = eta + i*kappa (kappa < 0: gain)."""

    eta: float
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")

    @property
    def n(self) -> complex:
        return complex(self.eta, self.kappa)


@dataclass(frozen=True)
class SlabScenario:
    """An infinite planar slab of thickness L filling 0 <= z <= L, vacuum outside."""

    thickness: float
    medium: GainMedium

    def __post_init__(self) -> None:
        if not (self.thickness > 0 and math.isfinite(self.thickness)):
            raise ValueError(f"thickness must be positive, got {self.thickness}")

    def index_profile(self, z):
        """Piecewise relative permittivity: n^2 inside the slab, 1 outside."""
        z = np.asarray(z)
        inside = (z >= 0) & (z <= self.thickness)
        return np.where(inside, self.medium.n ** 2, 1.0 + 0.0j)


@dataclass(frozen=True)
class WaveSpec:
    """A plane wave: wavenumber k (rad/m), incidence angle (degrees), polarization."""

    k: float
    theta_deg: float
    polarization: Polarization

    def __post_init__(self) -> None:
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError(f"k must be positive, got {self.k}")
        if not abs(self.theta_deg) < 90.0:
            raise ValueError(f"|theta| must be < 90 degrees, got {self.theta_deg}")

    @classmethod
    def from_wavelength(cls, wavelength: float, theta_deg: float,
                        polarization: Polarization) -> "WaveSpec":
        return cls(2.0 * math.pi / wavelength, theta_deg, polarization)

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi / self.k

    @property
    def k_z(self) -> float:
        return self.k * math.cos(math.radians(self.theta_deg))


def u_parameter(medium: GainMedium, theta_deg: float,
                polarization: Polarization) -> complex:
    """Interface mismatch parameter: n'/cos(theta) for TE, n'/(n^2 cos(theta)) for TM."""
    if not abs(theta_deg) < 90.0:
        raise ValueError("u is singular at grazing incidence (|theta| = 90 degrees)")
    return incidence(medium, theta_deg, polarization)[1]


def incidence(medium: GainMedium, theta_deg: float, polarization: Polarization
              ) -> tuple[complex, complex, float, float]:
    """n' = sqrt(n^2 - sin^2(theta)), u, sin and cos of theta from one
    radians/sin/cos; unchecked.  For eta > 1, Re n' > 0 and Im n' carries
    the sign of kappa."""
    th = math.radians(theta_deg)
    sin_t, cos_t = math.sin(th), math.cos(th)
    n2 = medium.n ** 2
    n_p = cmath.sqrt(n2 - sin_t * sin_t)
    u = n_p / cos_t
    if polarization is Polarization.TM:
        u = u / n2
    return n_p, u, sin_t, cos_t

