"""Auxiliary zeta functions, evaluable by four independent routes.

For each half-period index lam, the auxiliary zeta is the log-derivative of
the auxiliary sigma; it equals zeta(u + omega_lam) - eta_lam, is odd, is not
elliptic, and has simple poles on omega_lam + lattice while the lattice
itself consists of regular points (with value 0 at u = 0).

Routes:
  SHIFT            zeta(u + omega_lam) - eta_lam
  THETA            eta1*u/omega1 + theta log-derivative of the companion index
  QSERIES          the lam-specific q-series (tan term only for lam = 1)
  PARTIAL_FRACTION coset partial-fraction sum, symmetric cutoff, each pair +-w
                   of coset points one term in w^2

The partial-fraction route sums at the reduced point, |u| <= rho with rho
the circumradius of the centred cell.  It splits the pairs of the disc at
|w| = 8*rho: the near ones are summed term by term at each point, and the
far ones, where |u/w|^2 <= 1/64, as the power series -sum_{j<J} u^(2j) M_j
of their sum of 1/(P (u^2 - P)), P = w^2, with the per-coset moments
M_j = sum_far P^(-j-2) built once per (lattice, radius, coset).  J = 9
terms leave out less than 2^-53 of each far term (64^-9 = 2^-54), so this
is the same finite sum, rearranged, and it reads no theta route
(weier_core._zeta_pair_sum).
"""

from __future__ import annotations

import cmath
import enum
import math

from .errors import SeriesDivergence
from .lattice import Lattice, LatticeConstants, Located, check_index, constants, locate
from .theta import DEFAULT_CONFIG, SeriesConfig
from .weier_core import EvalResult, Status, _theta_zeta, _zeta_pair_sum, pole_status

PI = math.pi

# q-series points with |Im(pi*u/omega1)| beyond this multiple of 2*pi*Im(tau)
# lose geometric convergence; fall back to the shift route there.
QSERIES_STRIP = 0.45

# Radius of the partial-fraction sum's cutoff disc, in minimum periods (see
# half_lattice_squares).
PARTIALFRAC_RADIUS = 200


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
    p, bad = pole_status(lat, u, (lam,))
    if bad is not None:
        return bad
    lc = constants(lat, cfg)
    if route is ZetaRoute.SHIFT:
        return EvalResult(_shift(lat, lc, lam, u, cfg), Status.FINITE)
    if route is ZetaRoute.THETA:
        return EvalResult(_theta_zeta(lat, lc, p, cfg, lam)[0], Status.FINITE)
    if route is ZetaRoute.QSERIES:
        return EvalResult(_qseries(lat, lc, lam, p, cfg, qseries_form), Status.FINITE)
    if route is ZetaRoute.PARTIAL_FRACTION:
        return EvalResult(_partialfrac(lat, lc, lam, p), Status.FINITE)
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


def _partialfrac(lat: Lattice, lc: LatticeConstants, lam: int, p: Located) -> complex:
    """-e_lam*u + sum over omega_lam + lattice of 1/(u-w) + 1/w + u/w^2 at
    u = u_red, plus the lattice increment.  The reduced point lies within
    the cell's circumradius, so `_zeta_pair_sum` takes its near/far split
    (see the module docstring).  PARTIALFRAC_RADIUS is read at each call,
    and the split table is keyed on it."""
    total = -lc.e(lam) * p.u_red + _zeta_pair_sum(lat, p.u_red, PARTIALFRAC_RADIUS, lam)
    return total + 2 * p.n * lc.eta1 + 2 * p.m * lc.eta3
