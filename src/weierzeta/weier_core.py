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

from .errors import NearZeroDenominator
from .lattice import (
    Lattice,
    LatticeConstants,
    Located,
    check_index,
    constants,
    locate,
    nearest,
    sorted_lattice_points,
)
from .theta import DEFAULT_CONFIG, HALF_PERIOD_THETA, SeriesConfig, _theta4

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


def pole_status(lat: Lattice, u: complex, cosets) -> tuple[Located, EvalResult | None]:
    """The located u, and the EvalResult for u at/near a pole (else None):
    each pole coset, a half-period index (0 for the lattice), is tested once
    against NEAR_POLE_FACTOR * min_period.  The kernels behind never guard."""
    p = locate(lat, u)
    radius = NEAR_POLE_FACTOR * lat.min_period
    for k in cosets:
        dist, translate = nearest(lat, p, k)
        if dist == 0.0:
            return p, EvalResult(_NAN, Status.AT_POLE, translate)
        if dist < radius:
            return p, EvalResult(_NAN, Status.NEAR_POLE, translate)
    return p, None


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


def _thetas(lat: Lattice, p: Located, cfg: SeriesConfig, deriv: bool = False) -> tuple:
    """The one theta pass of every kernel: _theta4 at v = u_red/(2*omega1)."""
    return _theta4(p.u_red / (2 * lat.omega1), lat.tau, cfg, deriv)


def _sigmas(lat: Lattice, lc: LatticeConstants, p: Located, cfg: SeriesConfig) -> tuple:
    """(sigma, sigma_1, sigma_2, sigma_3) at the reduced argument of p, from
    one theta pass; the auxiliary sigmas divide by the nullwerte held in lc."""
    w1 = lat.omega1
    gauss = cmath.exp(lc.eta1 * p.u_red * p.u_red / (2 * w1))
    t = _thetas(lat, p, cfg)
    nw = lc.nullwerte
    i1, i2, i3 = _AUX_THETA
    return (
        (2 * w1 / lc.nullwert_prime) * gauss * t[0],
        gauss * t[i1] / nw[i1],
        gauss * t[i2] / nw[i2],
        gauss * t[i3] / nw[i3],
    )


def _wp_pair(lat: Lattice, lc: LatticeConstants, p: Located, cfg: SeriesConfig) -> tuple:
    """(wp, wp') at a located point off the lattice, from one theta pass."""
    s0, s1, s2, s3 = _sigmas(lat, lc, p, cfg)
    ratio = s1 / s0
    return lc.e1 + ratio * ratio, -2 * (s1 * s2 * s3) / s0**3


def sigma(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Entire sigma function; exact zeros on the lattice."""
    lc = constants(lat, cfg)
    p = locate(lat, u)
    return _sigmas(lat, lc, p, cfg)[0] * _quasi_factor(lat, lc, p.u_red, p.n, p.m)


def sigma_aux(lat: Lattice, lam: int, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Auxiliary sigma for half-period index lam, normalised to 1 at u = 0."""
    check_index(lam)
    sign = _AUX_SIGN[lam]
    lc = constants(lat, cfg)
    p = locate(lat, u)
    base = _sigmas(lat, lc, p, cfg)[lam]
    return base * _quasi_factor(lat, lc, p.u_red, p.n, p.m) * sign(p.n, p.m)


def zeta_w(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Weierstrass zeta; simple poles on the lattice."""
    p, bad = pole_status(lat, u, (0,))
    if bad is not None:
        return bad
    return EvalResult(_theta_zeta(lat, p, cfg, 0)[0], Status.FINITE)


def _theta_zeta(lat: Lattice, p: Located, cfg: SeriesConfig, *idxs: int) -> list[complex]:
    """eta1*u_red/omega1 + theta_idx'/theta_idx / (2*omega1) plus the lattice
    increment at p for each theta index given, all from one theta pass: zeta_w
    for idx 0, the auxiliary zeta of index lam for idx = HALF_PERIOD_THETA[lam].
    Only an exact zero of theta_idx raises: the callers guard first, and no
    bound fits every lattice (the terms of theta_0, theta_1 carry |q|^(1/4))."""
    lc = constants(lat, cfg)
    w1 = lat.omega1
    t = _thetas(lat, p, cfg, deriv=True)
    out = []
    for idx in idxs:
        if t[idx] == 0:
            raise NearZeroDenominator(f"theta_{idx} is zero at u = {p.u!r}")
        val = lc.eta1 * p.u_red / w1 + t[4 + idx] / t[idx] / (2 * w1)
        out.append(val + 2 * p.n * lc.eta1 + 2 * p.m * lc.eta3)
    return out


def wp(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Weierstrass p-function via e1 + (sigma1/sigma)^2; double poles on the lattice."""
    p, bad = pole_status(lat, u, (0,))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    s0, s1, _, _ = _sigmas(lat, lc, p, cfg)
    ratio = s1 / s0
    return EvalResult(lc.e1 + ratio * ratio, Status.FINITE)


def wp_prime(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Derivative of wp via -2*sigma1*sigma2*sigma3/sigma^3; triple poles on the lattice."""
    p, bad = pole_status(lat, u, (0,))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    return EvalResult(_wp_pair(lat, lc, p, cfg)[1], Status.FINITE)


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
