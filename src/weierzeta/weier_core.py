"""Weierstrass sigma, zeta, and p-functions via the theta route.

Production evaluation reduces the argument to the centred fundamental cell,
evaluates a short theta series there, and reapplies the quasi-periodicity
factors analytically.  Slow lattice-sum and product oracles are provided for
each function; they exist for verification only.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .lattice import (
    Lattice,
    LatticeConstants,
    constants,
    nearest_translate,
    reduce_to_cell,
    sorted_lattice_points,
)
from .theta import DEFAULT_CONFIG, HALF_PERIOD_THETA, SeriesConfig, _dlog, _theta4

NEAR_POLE_FACTOR = 1e-8

_NAN = complex(float("nan"), float("nan"))


class Status(enum.Enum):
    FINITE = "Finite"
    AT_POLE = "AtPole"
    NEAR_POLE = "NearPole"


@dataclass(frozen=True)
class EvalResult:
    """Complex value plus pole status; value is meaningful only when Finite.

    For NearPole/AtPole results `pole` holds the offending lattice translate.
    """

    value: complex
    status: Status
    pole: complex | None = None

    @property
    def is_finite(self) -> bool:
        return self.status is Status.FINITE


def pole_status(lat: Lattice, u: complex, offsets) -> EvalResult | None:
    """EvalResult for u at/near any of the given pole cosets, else None."""
    radius = NEAR_POLE_FACTOR * lat.min_period
    for off in offsets:
        dist, translate = nearest_translate(lat, u, off)
        if dist == 0.0:
            return EvalResult(_NAN, Status.AT_POLE, translate)
        if dist < radius:
            return EvalResult(_NAN, Status.NEAR_POLE, translate)
    return None


def _quasi_factor(lat: Lattice, lc: LatticeConstants, u_red: complex, n: int, m: int) -> complex:
    """sigma(u_red + Omega)/sigma(u_red) for Omega = 2n*w1 + 2m*w3."""
    if n == 0 and m == 0:
        return 1.0 + 0j
    omega = 2 * n * lat.omega1 + 2 * m * lat.omega3
    eta = 2 * n * lc.eta1 + 2 * m * lc.eta3
    sign = -1.0 if (n + m + n * m) % 2 else 1.0
    return sign * cmath.exp(eta * (u_red + omega / 2))


# Theta index of each auxiliary sigma, in half-period order 1, 2, 3.
_AUX_THETA = tuple(HALF_PERIOD_THETA[lam] for lam in (1, 2, 3))

_AUX_SIGN = {
    1: lambda n, m: -1.0 if m % 2 else 1.0,
    2: lambda n, m: -1.0 if (n + m) % 2 else 1.0,
    3: lambda n, m: -1.0 if n % 2 else 1.0,
}


def _sigmas(lat: Lattice, lc: LatticeConstants, u_red: complex, cfg: SeriesConfig) -> tuple:
    """(sigma, sigma_1, sigma_2, sigma_3) at a cell-reduced argument, from one
    theta pass; the auxiliary sigmas divide by the nullwerte held in lc."""
    w1 = lat.omega1
    gauss = cmath.exp(lc.eta1 * u_red * u_red / (2 * w1))
    t = _theta4(u_red / (2 * w1), lat.tau, cfg)
    nw = lc.nullwerte
    i1, i2, i3 = _AUX_THETA
    return (
        (2 * w1 / lc.nullwert_prime) * gauss * t[0],
        gauss * t[i1] / nw[i1],
        gauss * t[i2] / nw[i2],
        gauss * t[i3] / nw[i3],
    )


def _wp_pair(lat: Lattice, lc: LatticeConstants, u_red: complex, cfg: SeriesConfig) -> tuple:
    """(wp, wp') at a cell-reduced argument off the lattice, from one theta pass."""
    s0, s1, s2, s3 = _sigmas(lat, lc, u_red, cfg)
    ratio = s1 / s0
    return lc.e1 + ratio * ratio, -2 * (s1 * s2 * s3) / s0**3


def sigma(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Entire sigma function; exact zeros on the lattice."""
    lc = constants(lat, cfg)
    u_red, n, m = reduce_to_cell(lat, u)
    return _sigmas(lat, lc, u_red, cfg)[0] * _quasi_factor(lat, lc, u_red, n, m)


def sigma_aux(lat: Lattice, lam: int, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Auxiliary sigma for half-period index lam, normalised to 1 at u = 0."""
    sign = _AUX_SIGN[lam]
    lc = constants(lat, cfg)
    u_red, n, m = reduce_to_cell(lat, u)
    base = _sigmas(lat, lc, u_red, cfg)[lam]
    return base * _quasi_factor(lat, lc, u_red, n, m) * sign(n, m)


def zeta_w(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Weierstrass zeta; simple poles on the lattice."""
    bad = pole_status(lat, u, (0j,))
    if bad is not None:
        return bad
    return EvalResult(_theta_zeta(lat, 0, u, cfg), Status.FINITE)


def _theta_zeta(lat: Lattice, idx: int, u: complex, cfg: SeriesConfig) -> complex:
    """eta1*u/omega1 + theta_idx'/theta_idx / (2*omega1) at the cell-reduced
    argument, plus the lattice increment: zeta_w for idx 0, and for
    idx = HALF_PERIOD_THETA[lam] the auxiliary zeta of index lam."""
    lc = constants(lat, cfg)
    u_red, n, m = reduce_to_cell(lat, u)
    w1 = lat.omega1
    dlog = _dlog(idx, u_red / (2 * w1), lat.tau, cfg)
    val = lc.eta1 * u_red / w1 + dlog / (2 * w1)
    return val + 2 * n * lc.eta1 + 2 * m * lc.eta3


def wp(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Weierstrass p-function via e1 + (sigma1/sigma)^2; double poles on the lattice."""
    bad = pole_status(lat, u, (0j,))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    u_red, _, _ = reduce_to_cell(lat, u)
    s0, s1, _, _ = _sigmas(lat, lc, u_red, cfg)
    ratio = s1 / s0
    return EvalResult(lc.e1 + ratio * ratio, Status.FINITE)


def wp_prime(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Derivative of wp via -2*sigma1*sigma2*sigma3/sigma^3; triple poles on the lattice."""
    bad = pole_status(lat, u, (0j,))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    u_red, _, _ = reduce_to_cell(lat, u)
    return EvalResult(_wp_pair(lat, lc, u_red, cfg)[1], Status.FINITE)


# ---------------------------------------------------------------------------
# Slow oracles: direct lattice sums/products, truncated at a symmetric cutoff
# |point| <= radius * min period.  Verification only; each imports numpy
# when called, so that the theta routes start without it.
# ---------------------------------------------------------------------------


def wp_lattice_sum(lat: Lattice, u: complex, radius: int = 200) -> complex:
    """1/u^2 + sum over the lattice of 1/(u-Omega)^2 - 1/Omega^2."""
    import numpy as np

    pts = sorted_lattice_points(2 * lat.omega1, 2 * lat.omega3, radius)
    terms = 1.0 / ((u - pts) ** 2) - 1.0 / (pts**2)
    return 1.0 / (u * u) + complex(np.sum(terms))


def zeta_lattice_sum(lat: Lattice, u: complex, radius: int = 200) -> complex:
    """1/u + sum over the lattice of 1/(u-Omega) + 1/Omega + u/Omega^2."""
    import numpy as np

    pts = sorted_lattice_points(2 * lat.omega1, 2 * lat.omega3, radius)
    terms = 1.0 / (u - pts) + 1.0 / pts + u / (pts**2)
    return 1.0 / u + complex(np.sum(terms))


def sigma_product(lat: Lattice, u: complex, radius: int = 60) -> complex:
    """u * prod over the lattice of (1 - u/Omega) exp(u/Omega + u^2/(2 Omega^2)).

    Computed as u * exp(sum of factor logs); principal logs per factor are
    safe because the exponential removes any 2*pi*i bookkeeping.
    """
    import numpy as np

    pts = sorted_lattice_points(2 * lat.omega1, 2 * lat.omega3, radius)
    logs = np.log(1.0 - u / pts) + u / pts + u * u / (2.0 * pts**2)
    return u * cmath.exp(complex(np.sum(logs)))
