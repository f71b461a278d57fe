"""Zeta differences of the first and second kind, and constant recovery.

The first-kind difference for index lam is the auxiliary zeta minus the
classical zeta: an odd elliptic function of order two with simple poles at
u = 0 and u = omega_lam and zeros at the other two half-periods.  The
second-kind difference for (lam, mu) subtracts two auxiliary zetas: poles at
omega_lam, omega_mu and zeros at 0, omega_nu.

Both evaluate along four routes that cross-certify each other.  Each public
function locates its argument and runs a kernel behind
`weier_core._guarded`, which guards the point against the pole cosets once
and then looks the record up; every route is then one theta pass at that
point: `zetadiff` subtracts two theta log-derivatives from it, and the
others take one closed form in s = (sigma, sigma_1, sigma_2, sigma_3) or
in the thetas.  For delta the wp route is wp' / (2 (wp - e_lam)), with the
sigma form inside the zone of omega_lam (`LatticeConstants.zones`), where
wp - e_lam cancels.  For delta2 these are (e_mu - e_lam) s_nu s / (s_lam s_mu)
on the sigma route (eq. 13), its theta image, negated for lam < mu, on the
theta route, and 2 (e_lam - e_mu)(wp - e_nu) / wp' on the wp route away from
its removable 0/0 points.  The derivatives are closed forms in the same sigmas (see
`delta_prime`, `delta2_prime`), and the pointwise values of the differences
recover every lattice constant.  Every e_lam - e_mu these forms take is the
record's `ediff`, built from the nullwerte: on tall lattices e2 - e3 is of
order |q|*e1, and a difference of the rounded e's loses it.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import PoleProximityError
from .lattice import (
    NEAR_POLE_FACTOR, Lattice, LatticeConstants, Located, check_index, check_pair, complement, constants, locate,
    near, reach,
)
from .theta import DEFAULT_CONFIG, SeriesConfig
from .weier_core import EvalResult, _guarded, _sigmas, _theta_zeta, _thetas, _wp_pair

PI = math.pi


class DeltaRoute(enum.Enum):
    ZETA_DIFF = "zetadiff"
    WP_QUOTIENT = "wp"
    SIGMA_QUOTIENT = "sigma"
    THETA_QUOTIENT = "theta"


# The members in definition order, read once for the kernels' per-point
# tests: on Python 3.11 a DeltaRoute.X read goes through EnumType.__getattr__.
_ZETA_DIFF, _WP_QUOTIENT, _SIGMA_QUOTIENT, _THETA_QUOTIENT = DeltaRoute


def delta(
    lat: Lattice,
    lam: int,
    u: complex,
    route: DeltaRoute = DeltaRoute.SIGMA_QUOTIENT,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """First-kind zeta difference for half-period index lam."""
    check_index(lam)
    return _guarded(_delta, locate(lat, u, cfg), (0, lam), None, lam, route)


def _delta(lc: LatticeConstants, p: Located, lam: int, route: DeltaRoute) -> complex:
    if route is _ZETA_DIFF:
        z, z_lam = _theta_zeta(lc, p, 0, lam)
        return z_lam - z
    if route is _WP_QUOTIENT and near(p, lam, lc.zones[lam - 1], lc.zone_reaches[lam - 1]) is None:
        # Outside the zone where wp - e_lam cancels; the sigma form serves inside.
        wp_, wpp = _wp_pair(lc, p)
        return 0.5 * wpp / (wp_ - lc.e(lam))
    if route is _WP_QUOTIENT or route is _SIGMA_QUOTIENT:
        return _delta_sigma(_sigmas(lc, p), lam)
    if route is _THETA_QUOTIENT:
        # A nullwerte constant times a quotient of four thetas; the minus sign
        # is fixed by the -1/u behaviour at the origin.
        mu, nu = complement(lam)
        nw, t = lc.nullwerte, _thetas(p)
        const = -nw[lam] * lc.nullwert_prime / (2 * p.lat.omega1 * nw[mu] * nw[nu])
        return const * t[mu] * t[nu] / (t[lam] * t[0])
    raise ValueError(f"unknown route {route!r}")


def _delta_sigma(s: tuple, lam: int) -> complex:
    """The sigma quotient -s_mu s_nu / (s_lam s) from the sigmas s at u."""
    mu, nu = complement(lam)
    return -(s[mu] * s[nu] / (s[lam] * s[0]))


def delta_prime(lat: Lattice, lam: int, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Derivative of the first-kind difference, wp(u) - wp(u + omega_lam).

    Evaluated as r - (e_lam - e_mu)(e_lam - e_nu) / r with r =
    (sigma_lam/sigma)^2 = wp - e_lam from one pass, so no term cancels near
    the poles.
    """
    check_index(lam)
    return _guarded(_delta_prime, locate(lat, u, cfg), (0, lam), None, lam)


def _delta_prime(lc: LatticeConstants, p: Located, lam: int) -> complex:
    mu, nu = complement(lam)
    s = _sigmas(lc, p)
    ratio = s[lam] / s[0]
    r = ratio * ratio
    return r - lc.ediff(lam, mu) * lc.ediff(lam, nu) / r


def delta2(
    lat: Lattice,
    lam: int,
    mu: int,
    u: complex,
    route: DeltaRoute = DeltaRoute.WP_QUOTIENT,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Second-kind zeta difference for the ordered pair (lam, mu)."""
    check_pair(lam, mu)
    return _guarded(_delta2, locate(lat, u, cfg), (lam, mu), None, lam, mu, route)


def _delta2(lc: LatticeConstants, p: Located, lam: int, mu: int, route: DeltaRoute) -> complex:
    nu, lat = 6 - lam - mu, p.lat
    if route is _ZETA_DIFF:
        z_lam, z_mu = _theta_zeta(lc, p, lam, mu)
        return z_lam - z_mu
    if route is _THETA_QUOTIENT:
        # The theta image of the sigma form, negated for lam < mu: there
        # e_lam - e_mu = (pi/2 omega1)^2 theta_nu(0)^4 (how `constants` builds
        # the e's), and Jacobi's theta'(0) = pi theta_1(0) theta_2(0) theta_3(0)
        # carries the sigma form over to this one.
        t = _thetas(p)
        val = (PI / (2 * lat.omega1)) * lc.nullwerte[nu] ** 2 * t[nu] * t[0] / (t[lam] * t[mu])
        return -val if lam < mu else val
    if (
        # The wp form has removable 0/0 points at its zeros: at u = 0, refused
        # within the pole radius like wp itself, and at u = omega_nu, where
        # wp - e_nu cancels; the sigma form serves around them.
        route is _WP_QUOTIENT
        and near(p, 0, lat.pole_radius, lat.pole_reach) is None
        and near(p, nu, lc.zones[nu - 1], lc.zone_reaches[nu - 1]) is None
    ):
        wp_, wpp = _wp_pair(lc, p)
        return 2 * lc.ediff(lam, mu) * (wp_ - lc.e(nu)) / wpp
    if route is _WP_QUOTIENT or route is _SIGMA_QUOTIENT:
        s = _sigmas(lc, p)
        return lc.ediff(mu, lam) * s[nu] * s[0] / (s[lam] * s[mu])
    raise ValueError(f"unknown route {route!r}")


def delta2_prime(
    lat: Lattice, lam: int, mu: int, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Derivative of the second-kind difference, wp(u + omega_mu) - wp(u + omega_lam).

    With r_k = (sigma_k/sigma)^2 = wp - e_k from one pass and A_k =
    (e_k - e_i)(e_k - e_j), this is e_mu - e_lam + A_mu / r_mu - A_lam / r_lam,
    evaluated as (e_mu - e_lam)(1 + (e_mu - e_nu) / r_mu + (e_lam - e_nu) / r_lam)
    with each 1/r_k as (sigma/sigma_k)^2: exact at u = 0, where it is
    e_mu - e_lam, and free of cancellation near the poles.
    """
    check_pair(lam, mu)
    return _guarded(_delta2_prime, locate(lat, u, cfg), (lam, mu), None, lam, mu)


def _delta2_prime(lc: LatticeConstants, p: Located, lam: int, mu: int) -> complex:
    nu = 6 - lam - mu
    s = _sigmas(lc, p)
    inv_m, inv_l = s[0] / s[mu], s[0] / s[lam]
    return lc.ediff(mu, lam) * (
        1 + lc.ediff(mu, nu) * inv_m * inv_m + lc.ediff(lam, nu) * inv_l * inv_l
    )


DeltaConstants = namedtuple("DeltaConstants", "e1 e2 e3 g2 g3 disc")
DeltaConstants.__doc__ = """Lattice constants recovered from pointwise zeta-difference values."""


def constants_from_deltas(
    lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG
) -> DeltaConstants:
    """Recover e's, invariants, and discriminant from the six differences at u.

    Every formula is independent of u; only sigma-quotient values feed the
    recovery, so the result genuinely cross-checks the nullwerte constants.
    """
    p = locate(lat, u, cfg)
    guard = 100 * NEAR_POLE_FACTOR * lat.min_period
    guard_reach = reach(guard, lat.min_period)
    if any(near(p, k, guard, guard_reach) is not None for k in range(4)):
        raise PoleProximityError(
            f"constants_from_deltas needs u away from every half-period coset, got {u!r}"
        )
    s = _sigmas(constants(lat, cfg), p)
    d = {lam: _delta_sigma(s, lam) for lam in (1, 2, 3)}
    d2 = {(a, b): d[a] - d[b] for a in (1, 2, 3) for b in (1, 2, 3) if a != b}
    e = {}
    for lam in (1, 2, 3):
        mu, nu = complement(lam)
        e[lam] = (d2[(lam, mu)] * d[nu] + d2[(lam, nu)] * d[mu]) / 3
    g2 = (2.0 / 3.0) * (
        d2[(3, 2)] ** 2 * d[1] ** 2 + d2[(1, 3)] ** 2 * d[2] ** 2 + d2[(1, 2)] ** 2 * d[3] ** 2
    )
    g3 = 4 * e[1] * e[2] * e[3]
    disc = 16 * (d[1] * d[2] * d[3] * d2[(1, 2)] * d2[(2, 3)] * d2[(3, 1)]) ** 2
    return DeltaConstants(e1=e[1], e2=e[2], e3=e[3], g2=g2, g3=g3, disc=disc)
