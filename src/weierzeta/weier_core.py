"""Weierstrass sigma, zeta, and p-functions via the theta route.

Production evaluation reduces the argument to the centred fundamental cell
and runs one theta pass there, held in half-period order (`_thetas`: entry
k vanishes on omega_k + lattice).  The four sigmas at the reduced point
(`_sigmas`) leave out the Gaussian factor they share, which every quotient
of degree 0 cancels; only `sigma` and `sigma_aux` apply it, with the
quasi-periodicity factor and the sign of the translate, in one body.
Every function with poles is a kernel behind one path (`_guarded`): the
guard on its pole cosets at the located point, then the kernel with the
lattice's record, which the caller hands in or which is looked up after the
guard.  Slow lattice-sum and product oracles are provided for
each function; they exist for verification only, and sum each pair +-Omega of
lattice points as one term in Omega^2 (`lattice._disc_pairs`).
"""

from __future__ import annotations

import cmath
import enum
from collections import namedtuple
from operator import itemgetter

from .errors import NearZeroDenominator, ValueOverflow
from .lattice import (
    _HALF_CELL,
    HALF_PERIOD_ORDER,
    Lattice,
    LatticeConstants,
    Located,
    _disc_pairs,
    _fsum,
    _tuple_new,
    check_index,
    constants,
    locate,
)
from .theta import DEFAULT_CONFIG, SeriesConfig, _theta4

NEAR_POLE_FACTOR = 1e-8

_NAN = complex(float("nan"), float("nan"))


class Status(enum.Enum):
    FINITE = "Finite"
    AT_POLE = "AtPole"
    NEAR_POLE = "NearPole"


_FINITE = Status.FINITE  # read once: an Enum member is a descriptor lookup


class EvalResult(namedtuple("EvalResult", "value status pole", defaults=(None,))):
    """Complex value plus pole status; value is meaningful only when Finite.

    For NearPole/AtPole results `pole` holds the offending lattice translate.
    """

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return self.status is _FINITE


def pole_status(lat: Lattice, u: complex, cosets) -> tuple[Located, EvalResult | None]:
    """The located u, and the EvalResult for u at/near a pole (else None):
    each pole coset, a half-period index (0 for the lattice), is tested once
    against NEAR_POLE_FACTOR * min_period, by `lattice.nearest`'s arithmetic
    written out."""
    p = locate(lat, u)
    radius = NEAR_POLE_FACTOR * lat.min_period
    w1, w3 = lat.omega1, lat.omega3
    for k in cosets:
        if k == 0:
            translate = 0j + 2 * p.n * w1 + 2 * p.m * w3
        else:
            a, b = _HALF_CELL[k]
            translate = lat.offsets[k] + 2 * round(p.alpha - a) * w1 + 2 * round(p.beta - b) * w3
        dist = abs(u - translate)
        if dist == 0.0:
            return p, EvalResult(_NAN, Status.AT_POLE, translate)
        if dist < radius:
            return p, EvalResult(_NAN, Status.NEAR_POLE, translate)
    return p, None


def _guarded(kernel, lat: Lattice, u: complex, cosets, cfg: SeriesConfig, lc, *args) -> EvalResult:
    """`pole_status` on the cosets, and off them kernel(lat, lc, p, cfg, *args)
    at the located point p, Finite.  lc None is looked up here, after the
    guard, so a pole is reported even where the record overflows."""
    p, bad = pole_status(lat, u, cosets)
    if bad is not None:
        return bad
    if lc is None:
        lc = constants(lat, cfg)
    return _tuple_new(EvalResult, (kernel(lat, lc, p, cfg, *args), _FINITE, None))


def _translate_sign(p: Located, k: int) -> float:
    """The sign by which sigma_k's quasi-periodicity at the translate (n, m)
    of p differs from sigma's (1 for k = 0): exp(eta_Omega*omega_k -
    eta_k*Omega) = exp(2*pi*i*(n*b - m*a)) by the Legendre relation, with
    (a, b) the cell coordinates of omega_k."""
    a, b = _HALF_CELL[k]
    return -1.0 if (p.n * b - p.m * a) % 1 else 1.0


_IN_HALF_PERIOD_ORDER = (
    itemgetter(*HALF_PERIOD_ORDER),
    itemgetter(*HALF_PERIOD_ORDER, *(4 + i for i in HALF_PERIOD_ORDER)),
)


def _thetas(lat: Lattice, p: Located, cfg: SeriesConfig, deriv: bool = False) -> tuple:
    """The one theta pass of every kernel, _theta4 at v = u_red/(2*omega1),
    in half-period order: entry k vanishes on omega_k + lattice (k = 0 the
    lattice, the odd theta), and with deriv its v-derivative sits at 4 + k."""
    return _IN_HALF_PERIOD_ORDER[deriv](_theta4(p.u_red / lat.period1, lat.tau, lat.q4, cfg, deriv))


def _sigmas(lat: Lattice, lc, p: Located, cfg: SeriesConfig) -> tuple:
    """(sigma, sigma_1, sigma_2, sigma_3) at the reduced argument of p, from
    one theta pass, each without the Gaussian factor exp(eta1*u_red^2/(2*omega1))
    the four share: 2*omega1*theta(v)/theta'(0) (`sigma_factor` times
    theta(v)) and theta_k(v)/theta_k(0).  lc is the lattice's
    LatticeConstants or JacobiParams; both carry `sigma_factor` and `nullwerte`.
    Every quotient of degree 0 in them cancels that factor, and only `sigma`
    and `sigma_aux`, which return a sigma itself, apply it; on tall or skewed
    cells it underflows before anything else does."""
    t = _thetas(lat, p, cfg)
    nw = lc.nullwerte
    return lc.sigma_factor * t[0], t[1] / nw[1], t[2] / nw[2], t[3] / nw[3]


def _wp_pair(lat: Lattice, lc: LatticeConstants, p: Located, cfg: SeriesConfig) -> tuple:
    """(wp, wp') at a located point off the lattice, from one theta pass."""
    s0, s1, s2, s3 = _sigmas(lat, lc, p, cfg)
    ratio = s1 / s0
    return lc.e1 + ratio * ratio, -2 * (s1 * s2 * s3) / s0**3


def sigma(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Entire sigma function; exact zeros on the lattice."""
    return _sigma(lat, constants(lat, cfg), 0, u, cfg)


def sigma_aux(lat: Lattice, lam: int, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Auxiliary sigma for half-period index lam, normalised to 1 at u = 0."""
    check_index(lam)
    return _sigma(lat, constants(lat, cfg), lam, u, cfg)


def _sigma(lat: Lattice, lc: LatticeConstants, k: int, u: complex, cfg: SeriesConfig) -> complex:
    """sigma (k = 0) or sigma_k at u: the reduced value from `_sigmas` times
    the Gaussian factor, then, for u = u_red + Omega with Omega = 2n*omega1 +
    2m*omega3, times sigma's quasi-period factor
    (-1)^(n+m+nm) exp(eta_Omega*(u_red + Omega/2)) and the translate's sign.
    A factor too large for a float raises ValueOverflow."""
    p = locate(lat, u)
    n, m = p.n, p.m
    val = _sigmas(lat, lc, p, cfg)[k]
    try:
        val *= cmath.exp(lc.eta1 * p.u_red * p.u_red / (2 * lat.omega1))
        if n or m:
            eta = 2 * n * lc.eta1 + 2 * m * lc.eta3
            val *= cmath.exp(eta * (p.u_red + n * lat.omega1 + m * lat.omega3))
    except OverflowError:
        raise ValueOverflow(f"the exponential factor of sigma overflows at u = {u!r}") from None
    return val * _translate_sign(p, k) * (-1.0 if (n + m + n * m) % 2 else 1.0)


def zeta_w(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Weierstrass zeta; simple poles on the lattice."""
    return _guarded(_zeta_w, lat, u, (0,), cfg, None)


def _zeta_w(lat: Lattice, lc: LatticeConstants, p: Located, cfg: SeriesConfig) -> complex:
    return _theta_zeta(lat, lc, p, cfg, 0)[0]


def _theta_zeta(
    lat: Lattice, lc: LatticeConstants, p: Located, cfg: SeriesConfig, *ks: int
) -> list[complex]:
    """eta1*u_red/omega1 + theta_k'/theta_k / (2*omega1) plus the lattice
    increment at p for each half-period index k given (0 for the lattice),
    all from one theta pass: zeta_w for k = 0, the auxiliary zeta of index k
    otherwise.  Only an exact zero of theta_k raises: the callers guard
    first, and no bound fits every lattice (the terms of the odd theta and of
    theta_1 carry |q|^(1/4))."""
    w1 = lat.omega1
    t = _thetas(lat, p, cfg, deriv=True)
    out = []
    for k in ks:
        if t[k] == 0:
            raise NearZeroDenominator(f"the theta of coset {k} is zero at u = {p.u!r}")
        val = lc.eta1 * p.u_red / w1 + t[4 + k] / t[k] / (2 * w1)
        out.append(val + 2 * p.n * lc.eta1 + 2 * p.m * lc.eta3)
    return out


def wp(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Weierstrass p-function via e1 + (sigma1/sigma)^2; double poles on the lattice."""
    return _guarded(_wp, lat, u, (0,), cfg, None)


def _wp(lat: Lattice, lc: LatticeConstants, p: Located, cfg: SeriesConfig) -> complex:
    s0, s1, _, _ = _sigmas(lat, lc, p, cfg)
    ratio = s1 / s0
    return lc.e1 + ratio * ratio


def wp_prime(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Derivative of wp via -2*sigma1*sigma2*sigma3/sigma^3; triple poles on the lattice."""
    return _guarded(_wp_prime, lat, u, (0,), cfg, None)


def _wp_prime(lat: Lattice, lc: LatticeConstants, p: Located, cfg: SeriesConfig) -> complex:
    return _wp_pair(lat, lc, p, cfg)[1]


# ---------------------------------------------------------------------------
# Slow oracles: direct lattice sums/products, truncated at a symmetric cutoff
# |point| <= radius * min period, each pair +-Omega folded into one term in
# P = Omega^2 (see lattice._disc_pairs), each part summed exactly rounded.
# Verification only.
# ---------------------------------------------------------------------------


def wp_lattice_sum(lat: Lattice, u: complex, radius: int = 200) -> complex:
    """1/u^2 + sum over the lattice of 1/(u-Omega)^2 - 1/Omega^2,
    taken over the pairs as 2u^2 * sum of (3P - u^2)/(P (u^2 - P)^2)."""
    usq = u * u
    terms = []
    for big_p in _disc_pairs(lat, radius):
        d = usq - big_p
        terms.append((3 * big_p - usq) / (big_p * d * d))
    return 1.0 / usq + 2 * usq * _fsum(terms)


def zeta_lattice_sum(lat: Lattice, u: complex, radius: int = 200) -> complex:
    """1/u + sum over the lattice of 1/(u-Omega) + 1/Omega + u/Omega^2,
    taken over the pairs as 2u^3 * sum of 1/(P (u^2 - P))."""
    usq = u * u
    terms = (1.0 / (big_p * (usq - big_p)) for big_p in _disc_pairs(lat, radius))
    return 1.0 / u + 2 * u**3 * _fsum(terms)


def sigma_product(lat: Lattice, u: complex, radius: int = 60) -> complex:
    """u * prod over the lattice of (1 - u/Omega) exp(u/Omega + u^2/(2 Omega^2)).

    Computed as u * exp(sum over the pairs of log(1 - u^2/P) + u^2/P);
    principal logs per pair are safe because the exponential removes any
    2*pi*i bookkeeping.
    """
    usq = u * u
    xs = (usq / big_p for big_p in _disc_pairs(lat, radius))
    return u * cmath.exp(_fsum(cmath.log(1.0 - x) + x for x in xs))
