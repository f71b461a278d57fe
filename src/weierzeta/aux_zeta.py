"""Auxiliary zeta functions, evaluable by four independent routes.

For each half-period index lam, the auxiliary zeta is the log-derivative of
the auxiliary sigma; it equals zeta(u + omega_lam) - eta_lam, is odd, is not
elliptic, and has simple poles on omega_lam + lattice while the lattice
itself consists of regular points (with value 0 at u = 0).

Routes:
  SHIFT            zeta(u + omega_lam) - eta_lam
  THETA            eta1*u/omega1 + theta log-derivative of the companion index
  QSERIES          the lam-specific q-series (tan term only for lam = 1),
                   summed at every point of the centred cell
  PARTIAL_FRACTION coset partial-fraction sum over the whole coset, no cutoff,
                   each pair +-w of coset points one term in w^2

The partial-fraction route sums at the reduced point, |u| <= rho with rho
the circumradius of the centred cell.  It splits the pairs of the coset at
|w| = 8*rho: the near ones are summed term by term at each point, and the
far ones, where |u/w|^2 <= 1/64, as the power series -sum_{j<J} x^j M_j of
their sum of 1/(P (u^2 - P)), P = w^2 and x = u^2/rho^2, with the moments
M_j = sum_far P^-2 (rho^2/P)^j built once per record and coset in pure
Python (`_coset_tables`) and kept in the record's `pair_tables`.  J = 9
terms leave out less than 2^-53 of each far term (64^-9 = 2^-54).  M_0 and
M_1 are the whole coset's sums of w^-4 and w^-6, closed forms in e_lam and
the e differences, less the near pairs; M_2 .. M_8 are summed over the
pairs with 8*rho < |w| <= 32*rho; beyond, the terms of each circle all but
cancel, and the route stays within 1e-12 of a 60-digit reference on the
five reference lattices.  What the route reads: the near field and M_2 .. M_8 read only the lattice geometry; M_0
and M_1 read e_lam and the record's e differences (from the nullwerte), as
the -e_lam*u term reads e_lam.  No theta pass is involved.
"""

from __future__ import annotations

import cmath
import enum
import math
from operator import mul

from .errors import SeriesDivergence, ValueOverflow
from .lattice import Lattice, LatticeConstants, Located, _coset_pairs, _ldexp, check_index, complement, locate
from .theta import DEFAULT_CONFIG, SeriesConfig
from .weier_core import EvalResult, _guarded, _theta_zeta

PI = math.pi

class ZetaRoute(enum.Enum):
    SHIFT = "shift"
    THETA = "theta"
    QSERIES = "qseries"
    PARTIAL_FRACTION = "partialfrac"


# The members in definition order, read once for `_zeta_aux`'s per-point
# tests: on Python 3.11 a ZetaRoute.X read goes through EnumType.__getattr__.
_SHIFT, _THETA, _QSERIES, _PARTIAL_FRACTION = ZetaRoute


def zeta_aux(
    lat: Lattice,
    lam: int,
    u: complex,
    route: ZetaRoute = ZetaRoute.THETA,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Auxiliary zeta for half-period index lam along the chosen route."""
    check_index(lam)
    return _guarded(_zeta_aux, locate(lat, u, cfg), (lam,), None, lam, route)


def _zeta_aux(lc: LatticeConstants, p: Located, lam: int, route):
    """The auxiliary zeta of index lam at p on route, a ZetaRoute member."""
    if route is _SHIFT:
        return _shift(lc, p, lam)
    if route is _THETA:
        return _theta_zeta(lc, p, lam)[0]
    if route is _QSERIES:
        return _qseries(lc, p, lam, False)
    if route is _PARTIAL_FRACTION:
        return _partialfrac(lc, p, lam)
    raise ValueError(f"unknown route {route!r}")


def _shift(lc: LatticeConstants, p: Located, lam: int) -> complex:
    """zeta(u + omega_lam) - eta_lam at p, off the omega_lam coset, on p's
    lattice and config."""
    lat = p.lat
    return _theta_zeta(lc, locate(lat, p.u + lat.half_period(lam), p.cfg), 0)[0] - lc.eta(lam)


def _qseries(lc: LatticeConstants, p: Located, lam: int, cos: bool) -> complex:
    """The q-series of index lam at every point of the centred cell, in its
    exp form (the QSERIES route), or with its terms in cos and sin (Prop
    2.3; the table entries `zeta{lam}_cos`).  The exp form's leading terms
    a, b = exp(i*pi*(c*tau +- u_red/omega1)), c = 2 for lam = 1 and 1
    otherwise, are each advanced by q^2; in the cell |Im(u_red/omega1)| <=
    Im(tau), so |a|, |b| <= 1.  The cos form's cos and sin overflow on tall
    cells, which the guard reports as ValueOverflow.  The stop test is taken
    in units of |2*omega1|, so it reads the same at every scale."""
    u_red, lat = p.u_red, p.lat
    incr = 2 * p.n * lc.eta1 + 2 * p.m * lc.eta3
    w1 = lat.omega1
    x = PI * u_red / w1
    q = lat.q
    total = lc.eta1 * u_red / w1
    if lam == 1:
        total -= (PI / (2 * w1)) * cmath.tan(PI * u_red / (2 * w1))
        qpow, sgn, c = q * q, 1.0, 2
    else:
        qpow, sgn, c = q, (1.0 if lam == 2 else -1.0), 1
    step = q * q
    if not cos:
        a = cmath.exp(1j * (c * PI * lat.tau + x))
        b = cmath.exp(1j * (c * PI * lat.tau - x))
        coef = sgn * 1j * PI / w1
    else:
        cx, sx = cmath.cos(x), cmath.sin(x)
        coef = -sgn * 2 * PI / w1
    abs_tol, rel_tol, max_terms = p.cfg
    unit = abs(lat.period1)
    small = 0
    for _ in range(max_terms):
        if not cos:
            term = coef * (a / (1.0 + sgn * a) - b / (1.0 + sgn * b))
            a, b = a * step, b * step
        else:
            term = coef * qpow * sx / (1.0 + sgn * 2 * qpow * cx + qpow * qpow)
            qpow *= step
        total += term
        if abs(term) * unit <= abs_tol + rel_tol * abs(total) * unit:
            small += 1
            if small >= 2:
                return total + incr
        else:
            small = 0
    raise SeriesDivergence(
        f"auxiliary zeta q-series for index {lam}: no convergence within {max_terms} terms"
    )


def _partialfrac(lc: LatticeConstants, p: Located, lam: int) -> complex:
    """-e_lam*u + the sum over omega_lam + lattice of 1/(u-w) + 1/w + u/w^2 at
    u = u_red, plus the lattice increment: the pair sum of `_pair_series`
    over the whole coset, from the record's tables (`_coset_tables`), taken
    in their units of 2^e and scaled back.  A value outside the float range
    raises ValueOverflow."""
    near, moments, rho, e = lc.pair_tables[lam - 1] or _coset_tables(p.lat, lc, lam)
    pairs = _ldexp(_pair_series(near, moments, rho, _ldexp(p.u_red, -e)), -e)
    total = -lc.e(lam) * p.u_red + pairs + 2 * p.n * lc.eta1 + 2 * p.m * lc.eta3
    if not cmath.isfinite(total):
        raise ValueOverflow(f"the partial-fraction sum is outside the float range at u = {p.u!r}")
    return total


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


def _coset_tables(lat: Lattice, lc: LatticeConstants, lam: int) -> tuple[list, list, float, int]:
    """(near, moments, rho, e) for `_pair_series` over the whole coset
    omega_lam + lattice, in units of 2^e with 1 <= |2*omega1|/2^e < 2, so
    that no product of pairs or moments leaves the float range at any scale
    of the lattice (scaling by a power of 2 is exact, and every reference
    lattice has e = 0): rho = max(|omega1 + omega3|, |omega1 - omega3|), the
    pairs with |p| <= PAIR_SPLIT * rho, and the far pairs' moments, highest
    first.  M_0 and M_1 are the whole coset's closed forms less the
    near pairs: with A = (e_lam - e_mu)(e_lam - e_nu), wp(omega_lam + v) =
    e_lam + A v^2 + e_lam A v^4 + ..., so the coset sums p^-4 to A/3 and
    p^-6 to e_lam A/5 (DLMF 23.3, 23.9), and the pairs to half of each.
    M_2 .. M_8 are summed over PAIR_SPLIT * rho < |p| <= PAIR_ANNULUS * rho.
    A disc past `lattice.MAX_PAIRS` pairs raises ConvergencePolicyError.
    The tables are stored in lc.pair_tables[lam - 1] and returned."""
    e = math.frexp(abs(lat.period1))[1] - 1
    w1, w3 = _ldexp(lat.omega1, -e), _ldexp(lat.omega3, -e)
    rho = max(abs(w1 + w3), abs(w1 - w3))
    near = _coset_pairs(lat, lam, 0.0, PAIR_SPLIT * rho, e)
    inner = _pair_moments(near, rho)
    moments = _pair_moments(_coset_pairs(lat, lam, PAIR_SPLIT * rho, PAIR_ANNULUS * rho, e), rho)
    mu, nu = complement(lam)
    # The e's are of degree -2 in the periods: in these units, times 2^(2e).
    a = _ldexp(lc.ediff(lam, mu), 2 * e) * _ldexp(lc.ediff(lam, nu), 2 * e)
    moments[0] = a / 6 - inner[0]
    moments[1] = rho * rho * (_ldexp(lc.e(lam), 2 * e) * a / 10) - inner[1]
    tables = lc.pair_tables[lam - 1] = (near, moments[::-1], rho, e)
    return tables
