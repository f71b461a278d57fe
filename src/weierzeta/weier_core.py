"""Weierstrass sigma, zeta, and p-functions via the theta route.

Production evaluation reduces the argument to the centred fundamental cell
(`lattice.locate`) and runs one theta pass there (`_thetas`: entry k
vanishes on omega_k + lattice, as `theta` numbers the series) and keeps it
on the located point, so every kernel that reads the point shares it.  The
four sigmas at the reduced point (`_sigmas`) leave out the Gaussian factor
they share, which every quotient of degree 0 cancels; only `sigma` and `sigma_aux` apply it, with the
quasi-periodicity factor and the sign of the translate, in one body.
Each function of a point is a kernel (lc, p, *args) behind one path
(`_guarded`): the guard on its pole cosets (none for the sigmas) at the
located point p the caller hands in, which carries its lattice and series
config, then the kernel with the lattice's record lc, which the caller
hands in or which is looked up after the guard; an overflow inside the
kernel is raised as ValueOverflow.
Slow lattice-sum and product oracles are provided for each function; they
exist for verification only, and sum each pair +-Omega of lattice points as
one term in Omega^2 (`lattice._disc_pairs`), on the lattice scaled to unit
size.
"""

from __future__ import annotations

import cmath
import enum
from collections import namedtuple

from .errors import NearZeroDenominator, PoleProximityError, ValueOverflow
from .lattice import (
    Lattice,
    LatticeConstants,
    Located,
    _disc_pairs,
    _fsum,
    _ldexp,
    _translate_sign,
    _unscaled,
    check_index,
    constants,
    locate,
    near,
)
from .theta import DEFAULT_CONFIG, SeriesConfig, _theta4

_NAN = complex(float("nan"), float("nan"))


class Status(enum.Enum):
    FINITE = "Finite"
    AT_POLE = "AtPole"
    NEAR_POLE = "NearPole"


_FINITE = Status.FINITE  # read once: an Enum member is a descriptor lookup

_tuple_new = tuple.__new__  # a named tuple without its Python-level __new__, for per-point results


class EvalResult(namedtuple("EvalResult", "value status pole", defaults=(None,))):
    """Complex value plus pole status; value is meaningful only when Finite.

    For NearPole/AtPole results `pole` holds the offending lattice translate.
    """

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return self.status is _FINITE


def pole_status(p: Located, cosets) -> EvalResult | None:
    """The EvalResult for the located point p at/near a pole, else None:
    each pole coset, a half-period index (0 for the lattice), is tested once
    against the lattice's pole radius and reach by `lattice.near`, which
    rejects a point whose gaps (taken by `locate`) keep it a margin beyond
    that radius and measures the `lattice.nearest` distance of any other."""
    radius, r_reach = p.lat.pole_radius, p.lat.pole_reach
    for k in cosets:
        hit = near(p, k, radius, r_reach)
        if hit is not None:
            dist, translate = hit
            return EvalResult(_NAN, Status.AT_POLE if dist == 0.0 else Status.NEAR_POLE, translate)
    return None


def _guarded(kernel, p: Located, cosets, lc, *args) -> EvalResult:
    """`pole_status` of the located point p on the cosets, and off them
    kernel(lc, p, *args), Finite.  lc None is looked up here, on the lattice
    and config p carries, after the guard, so a pole is reported even where
    the record overflows.  An OverflowError or ZeroDivisionError the kernel
    raises (a term past the float range on a very tall cell) is raised as
    ValueOverflow."""
    bad = pole_status(p, cosets)
    if bad is not None:
        return bad
    if lc is None:
        lc = constants(p.lat, p.cfg)
    try:
        return _tuple_new(EvalResult, (kernel(lc, p, *args), _FINITE, None))
    except ValueOverflow:
        raise
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueOverflow(f"a term is outside the float range at u = {p.u!r} ({exc})") from None


def _val(res: EvalResult):
    """The value of a Finite result; PoleProximityError for a pole status."""
    if not res.is_finite:
        raise PoleProximityError(f"evaluator hit a {res.status.value} point at {res.pole!r}")
    return res.value


def _thetas(p: Located, deriv: bool = False) -> tuple:
    """The one theta pass of every kernel, _theta4 at v = u_red/(2*omega1)
    under the point's config, as it comes: entry k vanishes on omega_k +
    lattice (k = 0 the lattice, the odd theta), and with deriv its
    v-derivative sits at 4 + k.  The pass is kept on p: a point is summed at
    most once without and once with the derivatives, and a derivative pass,
    whose first four entries are the plain pass bit for bit, also serves
    every later plain request."""
    t = p.thetas
    if t is None or (deriv and len(t) == 4):
        t = p.thetas = _theta4(p.u_red / p.lat.period1, p.lat.tau, p.lat.q4, p.cfg, deriv)
    return t


def _sigmas(lc: LatticeConstants, p: Located) -> tuple:
    """(sigma, sigma_1, sigma_2, sigma_3) at the reduced argument of p, from
    one theta pass, each without the Gaussian factor exp(eta1*u_red^2/(2*omega1))
    the four share: 2*omega1*theta(v)/theta'(0) (`sigma_factor` times
    theta(v)) and t_k(v)/t_k(0), t_k the theta of index k, with the
    `sigma_factor` and `nullwerte` of the lattice's record lc.  Every quotient of degree 0 in
    them cancels that factor, and only `sigma` and `sigma_aux`, which return
    a sigma itself, apply it; on tall or skewed cells it underflows before
    anything else does."""
    t = _thetas(p)
    nw = lc.nullwerte
    return lc.sigma_factor * t[0], t[1] / nw[1], t[2] / nw[2], t[3] / nw[3]


def _wp_pair(lc: LatticeConstants, p: Located) -> tuple | None:
    """(wp, wp') at a located point off the lattice, from one theta pass;
    None where the pair is outside the float range: wp' is of order u^-3,
    and sigma^3 overflows or underflows long before the quotient does on a
    lattice far from unit scale."""
    s0, s1, s2, s3 = _sigmas(lc, p)
    try:
        ratio = s1 / s0
        pair = lc.e1 + ratio * ratio, -2 * (s1 * s2 * s3) / s0**3
    except (OverflowError, ZeroDivisionError):
        return None
    return pair if cmath.isfinite(pair[0]) and cmath.isfinite(pair[1]) else None


def sigma(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Entire sigma function; exact zeros on the lattice."""
    return _guarded(_sigma, locate(lat, u, cfg), (), None, 0).value


def sigma_aux(lat: Lattice, lam: int, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Auxiliary sigma for half-period index lam, normalised to 1 at u = 0."""
    check_index(lam)
    return _guarded(_sigma, locate(lat, u, cfg), (), None, lam).value


def _sigma(lc: LatticeConstants, p: Located, k: int) -> complex:
    """sigma (k = 0) or sigma_k at the located point p: the reduced value
    from `_sigmas` times the Gaussian factor, then, for u = u_red + Omega
    with Omega = 2n*omega1 + 2m*omega3, times sigma's quasi-period factor
    (-1)^(n+m+nm) exp(eta_Omega*(u_red + Omega/2)) and the translate's sign.
    A factor too large for a float raises ValueOverflow."""
    n, m, lat = p.n, p.m, p.lat
    val = _sigmas(lc, p)[k]
    try:
        val *= cmath.exp(lc.eta1 * p.u_red * p.u_red / (2 * lat.omega1))
        if n or m:
            eta = 2 * n * lc.eta1 + 2 * m * lc.eta3
            val *= cmath.exp(eta * (p.u_red + n * lat.omega1 + m * lat.omega3))
    except OverflowError:
        raise ValueOverflow(f"the exponential factor of sigma overflows at u = {p.u!r}") from None
    return val * _translate_sign(p, k) * (-1.0 if (n + m + n * m) % 2 else 1.0)


def zeta_w(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Weierstrass zeta; simple poles on the lattice."""
    return _guarded(_zeta_w, locate(lat, u, cfg), (0,), None)


def _zeta_w(lc: LatticeConstants, p: Located) -> complex:
    return _theta_zeta(lc, p, 0)[0]


def _theta_zeta(lc: LatticeConstants, p: Located, *ks: int) -> list[complex]:
    """eta1*u_red/omega1 + theta_k'/theta_k / (2*omega1) plus the lattice
    increment at p for each half-period index k given (0 for the lattice),
    all from one theta pass: zeta_w for k = 0, the auxiliary zeta of index k
    otherwise.  Only an exact zero of theta_k raises: the callers guard
    first, and no bound fits every lattice (the terms of indices 0 and 1
    carry |q|^(1/4))."""
    w1 = p.lat.omega1
    t = _thetas(p, deriv=True)
    out = []
    for k in ks:
        if t[k] == 0:
            raise NearZeroDenominator(f"the theta of coset {k} is zero at u = {p.u!r}")
        val = lc.eta1 * p.u_red / w1 + t[4 + k] / t[k] / (2 * w1)
        out.append(val + 2 * p.n * lc.eta1 + 2 * p.m * lc.eta3)
    return out


def wp(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Weierstrass p-function via e1 + (sigma1/sigma)^2; double poles on the lattice."""
    return _guarded(_wp, locate(lat, u, cfg), (0,), None)


def _wp(lc: LatticeConstants, p: Located) -> complex:
    """e1 + (sigma_1/sigma)^2, the two sigmas formed as `_sigmas` forms them."""
    t = _thetas(p)
    ratio = t[1] / lc.nullwerte[1] / (lc.sigma_factor * t[0])
    return lc.e1 + ratio * ratio


def wp_prime(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> EvalResult:
    """Derivative of wp via -2*sigma1*sigma2*sigma3/sigma^3; triple poles on the lattice."""
    return _guarded(_wp_prime, locate(lat, u, cfg), (0,), None)


def _wp_prime(lc: LatticeConstants, p: Located) -> complex:
    pair = _wp_pair(lc, p)
    if pair is None:
        raise ValueOverflow(f"wp' is outside the float range at u = {p.u!r}")
    return pair[1]


# ---------------------------------------------------------------------------
# Slow oracles: direct lattice sums/products, truncated at a symmetric cutoff
# |point| <= radius * min period, each pair +-Omega folded into one term in
# P = Omega^2 (see lattice._disc_pairs), each part summed exactly rounded.
# Verification only.
# ---------------------------------------------------------------------------


def wp_lattice_sum(lat: Lattice, u: complex, radius: int = 200) -> complex:
    """1/u^2 + sum over the lattice of 1/(u-Omega)^2 - 1/Omega^2,
    taken over the pairs as 2u^2 * sum of (3P - u^2)/(P (u^2 - P)^2)."""
    pairs, e = _disc_pairs(lat, radius)
    u = _ldexp(u, -e)
    usq = u * u
    terms = []
    for big_p in pairs:
        d = usq - big_p
        terms.append((3 * big_p - usq) / (big_p * d * d))
    return _unscaled(1.0 / usq + 2 * usq * _fsum(terms), -2 * e)


def zeta_lattice_sum(lat: Lattice, u: complex, radius: int = 200) -> complex:
    """1/u + sum over the lattice of 1/(u-Omega) + 1/Omega + u/Omega^2,
    taken over the pairs as 2u^3 * sum of 1/(P (u^2 - P))."""
    pairs, e = _disc_pairs(lat, radius)
    u = _ldexp(u, -e)
    usq = u * u
    terms = (1.0 / (big_p * (usq - big_p)) for big_p in pairs)
    return _unscaled(1.0 / u + 2 * u**3 * _fsum(terms), -e)


def sigma_product(lat: Lattice, u: complex, radius: int = 60) -> complex:
    """u * prod over the lattice of (1 - u/Omega) exp(u/Omega + u^2/(2 Omega^2)).

    Computed as u * exp(sum over the pairs of log(1 - u^2/P) + u^2/P);
    principal logs per pair are safe because the exponential removes any
    2*pi*i bookkeeping.
    """
    pairs, e = _disc_pairs(lat, radius)
    u = _ldexp(u, -e)
    usq = u * u
    xs = (usq / big_p for big_p in pairs)
    return _unscaled(u * cmath.exp(_fsum(cmath.log(1.0 - x) + x for x in xs)), e)
