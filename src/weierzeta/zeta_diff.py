"""Zeta differences of the first and second kind, and constant recovery.

The first-kind difference for index lam is the auxiliary zeta minus the
classical zeta: an odd elliptic function of order two with simple poles at
u = 0 and u = omega_lam and zeros at the other two half-periods.  The
second-kind difference for (lam, mu) subtracts two auxiliary zetas: poles at
omega_lam, omega_mu and zeros at 0, omega_nu.

Both evaluate along several independent routes (used to cross-certify each
other), and their pointwise values recover every lattice constant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .aux_zeta import zeta_aux
from .errors import IdenticalIndices, PoleProximityError
from .lattice import Lattice, complement, constants, nearest_translate, reduce_to_cell
from .theta import DEFAULT_CONFIG, HALF_PERIOD_THETA, SeriesConfig, _theta4
from .weier_core import EvalResult, Status, _sigmas, _wp_pair, pole_status, sigma, wp, zeta_w

PI = math.pi

# Inside this fraction of the minimum period around a removable 0/0 point of
# the production formula, evaluation switches to the sigma-quotient form.
_DEGENERATE_ZONE = 1e-3


class DeltaRoute(enum.Enum):
    ZETA_DIFF = "zetadiff"
    WP_QUOTIENT = "wp"
    SIGMA_QUOTIENT = "sigma"
    THETA_QUOTIENT = "theta"


def _unwrap(res: EvalResult, where: str) -> complex:
    if not res.is_finite:
        raise PoleProximityError(f"{where}: {res.status.value} at {res.pole!r}")
    return res.value


def delta(
    lat: Lattice,
    lam: int,
    u: complex,
    route: DeltaRoute = DeltaRoute.SIGMA_QUOTIENT,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """First-kind zeta difference for half-period index lam."""
    mu, nu = complement(lam)
    bad = pole_status(lat, u, (0j, lat.half_period(lam)))
    if bad is not None:
        return bad
    if route is DeltaRoute.ZETA_DIFF:
        val = zeta_aux(lat, lam, u, cfg=cfg).value - _unwrap(zeta_w(lat, u, cfg), "delta")
    elif route is DeltaRoute.WP_QUOTIENT:
        # The pole guard above keeps u off the lattice, so wp is finite.
        lc = constants(lat, cfg)
        p, pp = _wp_pair(lat, lc, reduce_to_cell(lat, u)[0], cfg)
        val = 0.5 * pp / (p - lc.e(lam))
    elif route is DeltaRoute.SIGMA_QUOTIENT:
        lc = constants(lat, cfg)
        s = _sigmas(lat, lc, reduce_to_cell(lat, u)[0], cfg)
        val = -(s[mu] * s[nu] / (s[lam] * s[0]))
    elif route is DeltaRoute.THETA_QUOTIENT:
        val = _delta_theta_quotient(lat, lam, u, cfg)
    else:
        raise ValueError(f"unknown route {route!r}")
    return EvalResult(val, Status.FINITE)


def _delta_theta_quotient(lat: Lattice, lam: int, u: complex, cfg: SeriesConfig) -> complex:
    """Theta product form: nullwerte constant times a quotient of four thetas.

    The overall minus sign is fixed by the -1/u behaviour at the origin
    (equivalently by the sigma-quotient form it is derived from).
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
    """Derivative of the first-kind difference, closed form in wp."""
    mu, nu = complement(lam)
    bad = pole_status(lat, u, (0j, lat.half_period(lam)))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    p = _unwrap(wp(lat, u, cfg), "delta_prime")
    pe = p - lc.e(lam)
    val = (pe * pe - (lc.e(lam) - lc.e(mu)) * (lc.e(lam) - lc.e(nu))) / pe
    return EvalResult(val, Status.FINITE)


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
        val = zeta_aux(lat, lam, u, cfg=cfg).value - zeta_aux(lat, mu, u, cfg=cfg).value
    elif route is DeltaRoute.WP_QUOTIENT:
        # The quotient form has removable 0/0 points at the zeros u = 0 and
        # u = omega_nu; switch to the sigma-quotient form in a small zone.
        zone = _DEGENERATE_ZONE * lat.min_period
        if (
            nearest_translate(lat, u, 0j)[0] < zone
            or nearest_translate(lat, u, lat.half_period(nu))[0] < zone
        ):
            val = _delta2_sigma(lat, lam, mu, nu, u, cfg)
        else:
            # Outside the zone around 0, wp is finite.
            lc = constants(lat, cfg)
            p, pp = _wp_pair(lat, lc, reduce_to_cell(lat, u)[0], cfg)
            val = 2 * (lc.e(lam) - lc.e(mu)) * (p - lc.e(nu)) / pp
    elif route is DeltaRoute.SIGMA_QUOTIENT:
        val = _delta2_sigma(lat, lam, mu, nu, u, cfg)
    elif route is DeltaRoute.THETA_QUOTIENT:
        val = _delta2_theta_quotient(lat, lam, mu, nu, u, cfg)
    else:
        raise ValueError(f"unknown route {route!r}")
    return EvalResult(val, Status.FINITE)


def _third(lam: int, mu: int) -> int:
    if lam not in (1, 2, 3) or mu not in (1, 2, 3):
        raise ValueError(f"half-period indices must be 1, 2 or 3, got ({lam!r}, {mu!r})")
    if lam == mu:
        raise IdenticalIndices(f"second-kind difference needs distinct indices, got {lam}")
    return 6 - lam - mu


def _delta2_sigma(lat: Lattice, lam: int, mu: int, nu: int, u: complex, cfg: SeriesConfig) -> complex:
    """Sigma-quotient form with its u-independent prefactor, kept per lattice."""
    c = constants(lat, cfg).derived(("delta2_sigma", lam, mu), _delta2_sigma_const, lat, lam, mu, cfg)
    wl, wm, wn = (lat.half_period(i) for i in (lam, mu, nu))
    return c * sigma(lat, u - wn, cfg) * sigma(lat, u, cfg) / (
        sigma(lat, u + wl, cfg) * sigma(lat, u + wm, cfg)
    )


def _delta2_sigma_const(lat: Lattice, lam: int, mu: int, cfg: SeriesConfig) -> complex:
    wl, wm = lat.half_period(lam), lat.half_period(mu)
    return sigma(lat, wl - wm, cfg) / (sigma(lat, wl, cfg) * sigma(lat, wm, cfg))


def _delta2_theta_quotient(
    lat: Lattice, lam: int, mu: int, nu: int, u: complex, cfg: SeriesConfig
) -> complex:
    """Simplified theta form with the +-1 sign fixed once per lattice."""
    eps = constants(lat, cfg).derived(("delta2_epsilon", lam, mu), _delta2_epsilon, lat, lam, mu, cfg)
    u_red, _, _ = reduce_to_cell(lat, u)
    return eps * _delta2_theta_unsigned(lat, lam, mu, nu, u_red, cfg)


def _delta2_theta_unsigned(
    lat: Lattice, lam: int, mu: int, nu: int, u_red: complex, cfg: SeriesConfig
) -> complex:
    """The theta form before its sign, at a cell-reduced argument."""
    il, im_, in_ = (HALF_PERIOD_THETA[i] for i in (lam, mu, nu))
    nw = constants(lat, cfg).nullwerte
    t = _theta4(u_red / (2 * lat.omega1), lat.tau, cfg)
    return (PI / (2 * lat.omega1)) * nw[in_] ** 2 * t[in_] * t[0] / (t[il] * t[im_])


def _delta2_epsilon(lat: Lattice, lam: int, mu: int, cfg: SeriesConfig) -> float:
    """Determine the +-1 sign by comparing against the zeta-difference route
    at one probe point."""
    probe = 0.2468 * lat.omega1 + 0.327 * lat.omega3
    ref = delta2(lat, lam, mu, probe, DeltaRoute.ZETA_DIFF, cfg).value
    unsigned = _delta2_theta_unsigned(lat, lam, mu, _third(lam, mu), probe, cfg)
    return 1.0 if abs(ref - unsigned) <= abs(ref + unsigned) else -1.0


def delta2_prime(
    lat: Lattice, lam: int, mu: int, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Derivative of the second-kind difference, closed form in wp.

    Uses wp'' = 6 wp^2 - g2/2.  Near the lattice (where wp blows up but the
    expression stays finite) the half-period shift form wp(u + omega_mu) -
    wp(u + omega_lam) is used instead.
    """
    nu = _third(lam, mu)
    bad = pole_status(lat, u, (lat.half_period(lam), lat.half_period(mu)))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    if nearest_translate(lat, u, 0j)[0] < _DEGENERATE_ZONE * lat.min_period:
        val = _unwrap(wp(lat, u + lat.half_period(mu), cfg), "delta2_prime") - _unwrap(
            wp(lat, u + lat.half_period(lam), cfg), "delta2_prime"
        )
        return EvalResult(val, Status.FINITE)
    p = _unwrap(wp(lat, u, cfg), "delta2_prime")
    ppp = 6 * p * p - lc.g2 / 2
    val = 2 * (lc.e(lam) - lc.e(mu)) * (1 - ppp / (4 * (p - lc.e(lam)) * (p - lc.e(mu))))
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
    d = {
        lam: delta(lat, lam, u, DeltaRoute.SIGMA_QUOTIENT, cfg).value for lam in (1, 2, 3)
    }
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
