"""Auxiliary zeta functions, evaluable by four independent routes.

For each half-period index lam, the auxiliary zeta is the log-derivative of
the auxiliary sigma; it equals zeta(u + omega_lam) - eta_lam, is odd, is not
elliptic, and has simple poles on omega_lam + lattice while the lattice
itself consists of regular points (with value 0 at u = 0).

Routes:
  SHIFT            zeta(u + omega_lam) - eta_lam
  THETA            eta1*u/omega1 + theta log-derivative of the companion index
  QSERIES          the lam-specific q-series (tan term only for lam = 1)
  PARTIAL_FRACTION coset partial-fraction sum over the whole coset, no cutoff,
                   each pair +-w of coset points one term in w^2

The partial-fraction route sums at the reduced point, |u| <= rho with rho
the circumradius of the centred cell.  It splits the pairs of the coset at
|w| = 8*rho: the near ones are summed term by term at each point, and the
far ones, where |u/w|^2 <= 1/64, as the power series -sum_{j<J} x^j M_j of
their sum of 1/(P (u^2 - P)), P = w^2 and x = u^2/rho^2, with the moments
M_j = sum_far P^-2 (rho^2/P)^j built once per (lattice, cfg, coset) in pure
Python (`_coset_tables`).  J = 9 terms leave out less than 2^-53 of each far
term (64^-9 = 2^-54).  M_0 and M_1 are the whole coset's sums of w^-4 and
w^-6, closed forms in e_lam and the e differences, less the near pairs;
M_2 .. M_8 are summed over the pairs with 8*rho < |w| <= 32*rho; beyond,
the terms of each circle all but cancel, and the route stays within 1e-12
of a 60-digit reference on the five reference lattices.  What the route
reads: the near field and M_2 .. M_8 read only the lattice geometry; M_0
and M_1 read e_lam and the record's e differences (from the nullwerte), as
the -e_lam*u term reads e_lam.  No theta pass is involved.
"""

from __future__ import annotations

import cmath
import enum
import math
from functools import lru_cache
from operator import mul

from .errors import SeriesDivergence
from .lattice import (
    Lattice,
    LatticeConstants,
    Located,
    _coset_pairs,
    check_index,
    complement,
    constants,
    locate,
)
from .theta import DEFAULT_CONFIG, SeriesConfig
from .weier_core import EvalResult, _guarded, _theta_zeta

PI = math.pi

# q-series points with |Im(pi*u/omega1)| beyond this multiple of 2*pi*Im(tau)
# lose geometric convergence; fall back to the shift route there.
QSERIES_STRIP = 0.45


class ZetaRoute(enum.Enum):
    SHIFT = "shift"
    THETA = "theta"
    QSERIES = "qseries"
    PARTIAL_FRACTION = "partialfrac"


def zeta_aux(
    lat: Lattice,
    lam: int,
    u: complex,
    route: ZetaRoute = ZetaRoute.THETA,
    cfg: SeriesConfig = DEFAULT_CONFIG,
    qseries_form: str = "exp",
) -> EvalResult:
    """Auxiliary zeta for half-period index lam along the chosen route."""
    check_index(lam)
    return _guarded(_zeta_aux, lat, u, (lam,), cfg, None, lam, route, qseries_form)


def _zeta_aux(lat: Lattice, lc: LatticeConstants, p: Located, cfg: SeriesConfig, lam: int, route, form="exp"):
    if route is ZetaRoute.SHIFT:
        return _shift(lat, lc, lam, p.u, cfg)
    if route is ZetaRoute.THETA:
        return _theta_zeta(lat, lc, p, cfg, lam)[0]
    if route is ZetaRoute.QSERIES:
        return _qseries(lat, lc, lam, p, cfg, form)
    if route is ZetaRoute.PARTIAL_FRACTION:
        return _partialfrac(lat, lc, lam, p, cfg)
    raise ValueError(f"unknown route {route!r}")


def _shift(lat: Lattice, lc: LatticeConstants, lam: int, u: complex, cfg: SeriesConfig) -> complex:
    """zeta(u + omega_lam) - eta_lam, for u off the omega_lam coset."""
    p = locate(lat, u + lat.half_period(lam))
    return _theta_zeta(lat, lc, p, cfg, 0)[0] - lc.eta(lam)


def _qseries(
    lat: Lattice, lc: LatticeConstants, lam: int, p: Located, cfg: SeriesConfig, form: str
) -> complex:
    if form not in ("exp", "cos"):
        raise ValueError(f"qseries form must be 'exp' or 'cos', got {form!r}")
    u_red = p.u_red
    incr = 2 * p.n * lc.eta1 + 2 * p.m * lc.eta3
    w1 = lat.omega1
    if abs((PI * u_red / w1).imag) >= 2 * PI * lat.tau.imag * QSERIES_STRIP:
        return _shift(lat, lc, lam, u_red, cfg) + incr
    q = lat.q
    total = lc.eta1 * u_red / w1
    if lam == 1:
        total -= (PI / (2 * w1)) * cmath.tan(PI * u_red / (2 * w1))
        qpow, sgn = q * q, 1.0
    elif lam == 2:
        qpow, sgn = q, 1.0
    else:
        qpow, sgn = q, -1.0
    step = q * q
    exp_form = form == "exp"
    if exp_form:
        wplus = cmath.exp(1j * PI * u_red / w1)
        wminus = 1.0 / wplus
        coef = sgn * 1j * PI / w1
    else:
        c = cmath.cos(PI * u_red / w1)
        s = cmath.sin(PI * u_red / w1)
        coef = -sgn * 2 * PI / w1
    abs_tol, rel_tol, max_terms = cfg
    small = 0
    for _ in range(max_terms):
        if exp_form:
            a = qpow * wplus
            b = qpow * wminus
            term = coef * (a / (1.0 + sgn * a) - b / (1.0 + sgn * b))
        else:
            term = coef * qpow * s / (1.0 + sgn * 2 * qpow * c + qpow * qpow)
        total += term
        qpow *= step
        if abs(term) <= abs_tol + rel_tol * abs(total):
            small += 1
            if small >= 2:
                return total + incr
        else:
            small = 0
    raise SeriesDivergence(
        f"auxiliary zeta q-series for index {lam}: no convergence within {max_terms} terms"
    )


def _partialfrac(
    lat: Lattice, lc: LatticeConstants, lam: int, p: Located, cfg: SeriesConfig
) -> complex:
    """-e_lam*u + the sum over omega_lam + lattice of 1/(u-w) + 1/w + u/w^2 at
    u = u_red, plus the lattice increment: the pair sum of `_pair_series`
    over the whole coset, from the tables of `_coset_tables`."""
    total = -lc.e(lam) * p.u_red + _pair_series(*_coset_tables(lat, cfg, lam), p.u_red)
    return total + 2 * p.n * lc.eta1 + 2 * p.m * lc.eta3


# The pairs of a coset split at |w| = PAIR_SPLIT * rho (rho the cell's
# circumradius); the far ones are taken from PAIR_MOMENTS moments, the least J
# with (1/PAIR_SPLIT)^(2J) <= 2^-53, and the moments past the two closed forms
# are summed out to |w| = PAIR_ANNULUS * rho.
PAIR_SPLIT = 8
PAIR_MOMENTS = math.ceil(53 / (2 * math.log2(PAIR_SPLIT)))
PAIR_ANNULUS = 32


def _pair_series(near: list, moments: list, rho: float, u: complex) -> complex:
    """2u^3 * sum of 1/(P (u^2 - P)) over the pairs +-w of a coset, P = w^2,
    for |u| <= rho: the near pairs term by term, and the far ones as
    -sum_{j<J} x^j M_j with x = u^2/rho^2, the moments highest first."""
    usq = u * u
    total = 0j
    for big_p in near:
        total += 1.0 / (big_p * (usq - big_p))
    x = usq / (rho * rho)
    far = 0j
    for moment in moments:
        far = far * x + moment
    return 2 * u**3 * (total - far)


def _pair_moments(pairs, rho: float) -> list:
    """M_j = sum P^-2 (rho^2/P)^j over the given P, for j < PAIR_MOMENTS."""
    inv = [1.0 / big_p for big_p in pairs]
    ratio = [rho * rho * x for x in inv]
    term = list(map(mul, inv, inv))
    sums = []
    for _ in range(PAIR_MOMENTS):
        sums.append(sum(term, 0j))
        term = list(map(mul, term, ratio))
    return sums


@lru_cache(maxsize=64)
def _coset_tables(lat: Lattice, cfg: SeriesConfig, lam: int) -> tuple[list, list, float]:
    """(near, moments, rho) for `_pair_series` over the whole coset
    omega_lam + lattice: rho = max(|omega1 + omega3|, |omega1 - omega3|),
    the pairs with |p| <= PAIR_SPLIT * rho, and the far pairs' moments,
    highest first.  M_0 and M_1 are the whole coset's closed forms less the
    near pairs: with A = (e_lam - e_mu)(e_lam - e_nu), wp(omega_lam + v) =
    e_lam + A v^2 + e_lam A v^4 + ..., so the coset sums p^-4 to A/3 and
    p^-6 to e_lam A/5 (DLMF 23.3, 23.9), and the pairs to half of each.
    M_2 .. M_8 are summed over PAIR_SPLIT * rho < |p| <= PAIR_ANNULUS * rho."""
    lc = constants(lat, cfg)
    rho = max(abs(lat.omega1 + lat.omega3), abs(lat.omega1 - lat.omega3))
    near = _coset_pairs(lat, lam, 0.0, PAIR_SPLIT * rho)
    inner = _pair_moments(near, rho)
    moments = _pair_moments(_coset_pairs(lat, lam, PAIR_SPLIT * rho, PAIR_ANNULUS * rho), rho)
    mu, nu = complement(lam)
    a = lc.ediff(lam, mu) * lc.ediff(lam, nu)
    moments[0] = a / 6 - inner[0]
    moments[1] = rho * rho * (lc.e(lam) * a / 10) - inner[1]
    return near, moments[::-1], rho
