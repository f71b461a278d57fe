"""Zeta differences of the first and second kind, and constant recovery.

The first-kind difference for index lam is the auxiliary zeta minus the
classical zeta: an odd elliptic function of order two with simple poles at
u = 0 and u = omega_lam and zeros at the other two half-periods.  The
second-kind difference for (lam, mu) subtracts two auxiliary zetas: poles at
omega_lam, omega_mu and zeros at 0, omega_nu.

Both evaluate along four routes that cross-certify each other.  Each public
function locates its argument and guards it against the pole cosets once
(`weier_core.pole_status`); every route is then one theta pass at that
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

from .errors import IdenticalIndices, PoleProximityError
from .lattice import Lattice, check_index, complement, constants, locate, nearest
from .theta import DEFAULT_CONFIG, SeriesConfig
from .weier_core import NEAR_POLE_FACTOR, EvalResult, Status, _sigmas, _theta_zeta, _thetas
from .weier_core import _wp_pair, pole_status

PI = math.pi


class DeltaRoute(enum.Enum):
    ZETA_DIFF = "zetadiff"
    WP_QUOTIENT = "wp"
    SIGMA_QUOTIENT = "sigma"
    THETA_QUOTIENT = "theta"


def delta(
    lat: Lattice,
    lam: int,
    u: complex,
    route: DeltaRoute = DeltaRoute.SIGMA_QUOTIENT,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """First-kind zeta difference for half-period index lam."""
    check_index(lam)
    p, bad = pole_status(lat, u, (0, lam))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    if route is DeltaRoute.ZETA_DIFF:
        z, z_lam = _theta_zeta(lat, lc, p, cfg, 0, lam)
        val = z_lam - z
    elif route is DeltaRoute.WP_QUOTIENT and nearest(lat, p, lam)[0] >= lc.zones[lam - 1]:
        # Outside the zone where wp - e_lam cancels; the sigma form serves inside.
        wp_, wpp = _wp_pair(lat, lc, p, cfg)
        val = 0.5 * wpp / (wp_ - lc.e(lam))
    elif route is DeltaRoute.WP_QUOTIENT or route is DeltaRoute.SIGMA_QUOTIENT:
        val = _delta_sigma(_sigmas(lat, lc, p, cfg), lam)
    elif route is DeltaRoute.THETA_QUOTIENT:
        # A nullwerte constant times a quotient of four thetas; the minus sign
        # is fixed by the -1/u behaviour at the origin.
        mu, nu = complement(lam)
        nw, t = lc.nullwerte, _thetas(lat, p, cfg)
        const = -nw[lam] * lc.nullwert_prime / (2 * lat.omega1 * nw[mu] * nw[nu])
        val = const * t[mu] * t[nu] / (t[lam] * t[0])
    else:
        raise ValueError(f"unknown route {route!r}")
    return EvalResult(val, Status.FINITE)


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
    mu, nu = complement(lam)
    p, bad = pole_status(lat, u, (0, lam))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    s = _sigmas(lat, lc, p, cfg)
    ratio = s[lam] / s[0]
    r = ratio * ratio
    return EvalResult(r - lc.ediff(lam, mu) * lc.ediff(lam, nu) / r, Status.FINITE)


def delta2(
    lat: Lattice,
    lam: int,
    mu: int,
    u: complex,
    route: DeltaRoute = DeltaRoute.WP_QUOTIENT,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Second-kind zeta difference for the ordered pair (lam, mu)."""
    nu = _third(lam, mu)
    p, bad = pole_status(lat, u, (lam, mu))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    if route is DeltaRoute.ZETA_DIFF:
        z_lam, z_mu = _theta_zeta(lat, lc, p, cfg, lam, mu)
        val = z_lam - z_mu
    elif route is DeltaRoute.THETA_QUOTIENT:
        # The theta image of the sigma form, negated for lam < mu: there
        # e_lam - e_mu = (pi/2 omega1)^2 theta_nu(0)^4 (how `constants` builds
        # the e's), and Jacobi's theta'(0) = pi theta_1(0) theta_2(0) theta_3(0)
        # carries the sigma form over to this one.
        t = _thetas(lat, p, cfg)
        val = (PI / (2 * lat.omega1)) * lc.nullwerte[nu] ** 2 * t[nu] * t[0] / (t[lam] * t[mu])
        val = -val if lam < mu else val
    elif (
        # The wp form has removable 0/0 points at its zeros: at u = 0, refused
        # within the pole radius like wp itself, and at u = omega_nu, where
        # wp - e_nu cancels; the sigma form serves around them.
        route is DeltaRoute.WP_QUOTIENT
        and nearest(lat, p, 0)[0] >= NEAR_POLE_FACTOR * lat.min_period
        and nearest(lat, p, nu)[0] >= lc.zones[nu - 1]
    ):
        wp_, wpp = _wp_pair(lat, lc, p, cfg)
        val = 2 * lc.ediff(lam, mu) * (wp_ - lc.e(nu)) / wpp
    elif route is DeltaRoute.WP_QUOTIENT or route is DeltaRoute.SIGMA_QUOTIENT:
        s = _sigmas(lat, lc, p, cfg)
        val = lc.ediff(mu, lam) * s[nu] * s[0] / (s[lam] * s[mu])
    else:
        raise ValueError(f"unknown route {route!r}")
    return EvalResult(val, Status.FINITE)


def _third(lam: int, mu: int) -> int:
    check_index(lam)
    check_index(mu)
    if lam == mu:
        raise IdenticalIndices(f"second-kind difference needs distinct indices, got {lam}")
    return 6 - lam - mu


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
    nu = _third(lam, mu)
    p, bad = pole_status(lat, u, (lam, mu))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    s = _sigmas(lat, lc, p, cfg)
    inv_m, inv_l = s[0] / s[mu], s[0] / s[lam]
    val = lc.ediff(mu, lam) * (
        1 + lc.ediff(mu, nu) * inv_m * inv_m + lc.ediff(lam, nu) * inv_l * inv_l
    )
    return EvalResult(val, Status.FINITE)


DeltaConstants = namedtuple("DeltaConstants", "e1 e2 e3 g2 g3 disc")
DeltaConstants.__doc__ = """Lattice constants recovered from pointwise zeta-difference values."""


def constants_from_deltas(
    lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG
) -> DeltaConstants:
    """Recover e's, invariants, and discriminant from the six differences at u.

    Every formula is independent of u; only sigma-quotient values feed the
    recovery, so the result genuinely cross-checks the nullwerte constants.
    """
    p = locate(lat, u)
    guard = 100 * NEAR_POLE_FACTOR * lat.min_period
    if any(nearest(lat, p, k)[0] < guard for k in range(4)):
        raise PoleProximityError(
            f"constants_from_deltas needs u away from every half-period coset, got {u!r}"
        )
    s = _sigmas(lat, constants(lat, cfg), p, cfg)
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
