"""Zeta differences of the first and second kind, and constant recovery.

The first-kind difference for index lam is the auxiliary zeta minus the
classical zeta: an odd elliptic function of order two with simple poles at
u = 0 and u = omega_lam and zeros at the other two half-periods.  The
second-kind difference for (lam, mu) subtracts two auxiliary zetas: poles at
omega_lam, omega_mu and zeros at 0, omega_nu.

Both evaluate along four routes that cross-certify each other.  Each public
function guards its argument against the pole cosets once; the routes then
call the kernels of weier_core directly, which never guard.  Every route
but `zetadiff` (two theta log-derivatives subtracted) is one cell reduction,
one theta pass and one closed form in s = (sigma, sigma_1, sigma_2, sigma_3).
For delta the wp route is wp' / (2 (wp - e_lam)), with the sigma form inside
a small zone around omega_lam, where wp - e_lam cancels.  For delta2
these are (e_mu - e_lam) s_nu s / (s_lam s_mu) on the sigma route (eq. 13),
its theta image, negated for lam < mu, on the theta route, and
2 (e_lam - e_mu)(wp - e_nu) / wp' on the wp route away from its removable
0/0 points.  The derivatives are closed forms in the same sigmas (see
`delta_prime`, `delta2_prime`), and the pointwise values of the differences
recover every lattice constant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import IdenticalIndices, PoleProximityError
from .lattice import Lattice, complement, constants, nearest_translate, reduce_to_cell
from .theta import DEFAULT_CONFIG, HALF_PERIOD_THETA, SeriesConfig, _theta4
from .weier_core import EvalResult, Status, _sigmas, _theta_zeta, _wp_pair, pole_status

PI = math.pi

# Inside this fraction of the minimum period around a point where the wp
# form cancels (delta's pole omega_lam, delta2's removable 0/0 points),
# evaluation switches to the sigma-quotient form.
_DEGENERATE_ZONE = 1e-3


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
    bad = pole_status(lat, u, (0j, lat.half_period(lam)))
    if bad is not None:
        return bad
    if route is DeltaRoute.ZETA_DIFF:
        val = _theta_zeta(lat, HALF_PERIOD_THETA[lam], u, cfg) - _theta_zeta(lat, 0, u, cfg)
    elif route is DeltaRoute.WP_QUOTIENT or route is DeltaRoute.SIGMA_QUOTIENT:
        lc = constants(lat, cfg)
        u_red = reduce_to_cell(lat, u)[0]
        # The wp form's wp - e_lam cancels next to omega_lam; the sigma
        # form serves in a small zone around it.
        zone = _DEGENERATE_ZONE * lat.min_period
        if (
            route is DeltaRoute.WP_QUOTIENT
            and nearest_translate(lat, u, lat.half_period(lam))[0] >= zone
        ):
            p, pp = _wp_pair(lat, lc, u_red, cfg)
            val = 0.5 * pp / (p - lc.e(lam))
        else:
            val = _delta_sigma(_sigmas(lat, lc, u_red, cfg), lam)
    elif route is DeltaRoute.THETA_QUOTIENT:
        val = _delta_theta_quotient(lat, lam, u, cfg)
    else:
        raise ValueError(f"unknown route {route!r}")
    return EvalResult(val, Status.FINITE)


def _delta_sigma(s: tuple, lam: int) -> complex:
    """The sigma quotient -s_mu s_nu / (s_lam s) from the sigmas s at u."""
    mu, nu = complement(lam)
    return -(s[mu] * s[nu] / (s[lam] * s[0]))


def _delta_theta_quotient(lat: Lattice, lam: int, u: complex, cfg: SeriesConfig) -> complex:
    """Theta product form: nullwerte constant times a quotient of four thetas.

    The overall minus sign is fixed by the -1/u behaviour at the origin
    (equivalently by the sigma-quotient form it comes from).
    """
    mu, nu = complement(lam)
    il, im_, in_ = (HALF_PERIOD_THETA[i] for i in (lam, mu, nu))
    lc = constants(lat, cfg)
    nw = lc.nullwerte
    u_red, _, _ = reduce_to_cell(lat, u)
    t = _theta4(u_red / (2 * lat.omega1), lat.tau, cfg)
    const = -nw[il] * lc.nullwert_prime / (2 * lat.omega1 * nw[im_] * nw[in_])
    return const * t[im_] * t[in_] / (t[il] * t[0])


def delta_prime(lat: Lattice, lam: int, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Derivative of the first-kind difference, wp(u) - wp(u + omega_lam).

    Evaluated as r - (e_lam - e_mu)(e_lam - e_nu) / r with r =
    (sigma_lam/sigma)^2 = wp - e_lam from one pass, so no term cancels near
    the poles.
    """
    mu, nu = complement(lam)
    bad = pole_status(lat, u, (0j, lat.half_period(lam)))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    s = _sigmas(lat, lc, reduce_to_cell(lat, u)[0], cfg)
    ratio = s[lam] / s[0]
    r = ratio * ratio
    return EvalResult(r - (lc.e(lam) - lc.e(mu)) * (lc.e(lam) - lc.e(nu)) / r, Status.FINITE)


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
    bad = pole_status(lat, u, (lat.half_period(lam), lat.half_period(mu)))
    if bad is not None:
        return bad
    if route is DeltaRoute.ZETA_DIFF:
        il, im_ = HALF_PERIOD_THETA[lam], HALF_PERIOD_THETA[mu]
        val = _theta_zeta(lat, il, u, cfg) - _theta_zeta(lat, im_, u, cfg)
    elif route is DeltaRoute.THETA_QUOTIENT:
        val = _delta2_theta_quotient(lat, lam, mu, nu, u, cfg)
    elif route is DeltaRoute.WP_QUOTIENT or route is DeltaRoute.SIGMA_QUOTIENT:
        lc = constants(lat, cfg)
        u_red = reduce_to_cell(lat, u)[0]
        # The wp form has removable 0/0 points at its zeros u = 0 and
        # u = omega_nu; the sigma form serves in a small zone around them.
        zone = _DEGENERATE_ZONE * lat.min_period
        if (
            route is DeltaRoute.WP_QUOTIENT
            and nearest_translate(lat, u, 0j)[0] >= zone
            and nearest_translate(lat, u, lat.half_period(nu))[0] >= zone
        ):
            p, pp = _wp_pair(lat, lc, u_red, cfg)
            val = 2 * (lc.e(lam) - lc.e(mu)) * (p - lc.e(nu)) / pp
        else:
            s = _sigmas(lat, lc, u_red, cfg)
            val = (lc.e(mu) - lc.e(lam)) * s[nu] * s[0] / (s[lam] * s[mu])
    else:
        raise ValueError(f"unknown route {route!r}")
    return EvalResult(val, Status.FINITE)


def _third(lam: int, mu: int) -> int:
    if lam not in (1, 2, 3) or mu not in (1, 2, 3):
        raise ValueError(f"half-period indices must be 1, 2 or 3, got ({lam!r}, {mu!r})")
    if lam == mu:
        raise IdenticalIndices(f"second-kind difference needs distinct indices, got {lam}")
    return 6 - lam - mu


def _delta2_theta_quotient(
    lat: Lattice, lam: int, mu: int, nu: int, u: complex, cfg: SeriesConfig
) -> complex:
    """Simplified theta form of the sigma quotient.

    Its sign is -1 for lam < mu and +1 otherwise: there e_lam - e_mu =
    (pi/2 omega1)^2 theta_nu(0)^4 (how `constants` builds the e's), and
    Jacobi's theta'(0) = pi theta_1(0) theta_2(0) theta_3(0) carries the
    sigma form over to this one.
    """
    il, im_, in_ = (HALF_PERIOD_THETA[i] for i in (lam, mu, nu))
    nw = constants(lat, cfg).nullwerte
    u_red, _, _ = reduce_to_cell(lat, u)
    t = _theta4(u_red / (2 * lat.omega1), lat.tau, cfg)
    val = (PI / (2 * lat.omega1)) * nw[in_] ** 2 * t[in_] * t[0] / (t[il] * t[im_])
    return -val if lam < mu else val


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
    bad = pole_status(lat, u, (lat.half_period(lam), lat.half_period(mu)))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    s = _sigmas(lat, lc, reduce_to_cell(lat, u)[0], cfg)
    el, em, en = lc.e(lam), lc.e(mu), lc.e(nu)
    inv_m, inv_l = s[0] / s[mu], s[0] / s[lam]
    val = (em - el) * (1 + (em - en) * inv_m * inv_m + (el - en) * inv_l * inv_l)
    return EvalResult(val, Status.FINITE)


@dataclass(frozen=True)
class DeltaConstants:
    """Lattice constants recovered from pointwise zeta-difference values."""

    e1: complex
    e2: complex
    e3: complex
    g2: complex
    g3: complex
    disc: complex


def constants_from_deltas(
    lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG
) -> DeltaConstants:
    """Recover e's, invariants, and discriminant from the six differences at u.

    Every formula is independent of u; only sigma-quotient values feed the
    recovery, so the result genuinely cross-checks the nullwerte constants.
    """
    guard = 100 * 1e-8 * lat.min_period
    for off in (0j, lat.omega1, lat.omega2, lat.omega3):
        if nearest_translate(lat, u, off)[0] < guard:
            raise PoleProximityError(
                f"constants_from_deltas needs u away from every half-period coset, got {u!r}"
            )
    s = _sigmas(lat, constants(lat, cfg), reduce_to_cell(lat, u)[0], cfg)
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
