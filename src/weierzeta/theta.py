"""Jacobi theta functions as truncated q-series.

Four series are indexed 0..3 as DLMF 20.2 numbers them: index k is
theta_{k+1}, the series that vanishes on omega_k + lattice (k = 0 the
lattice itself, the odd series; omega_1, omega_2, omega_3 at v = 1/2,
(1 + tau)/2 and tau/2).  Written with x = pi*v and q = exp(i*pi*tau):

    theta_1(v) = 2 * sum_{n>=0} (-1)^n q^((n+1/2)^2) sin((2n+1)x)    index 0
    theta_2(v) = 2 * sum_{n>=0}        q^((n+1/2)^2) cos((2n+1)x)    index 1
    theta_3(v) = 1 + 2 * sum_{n>=1}        q^(n^2) cos(2nx)          index 2
    theta_4(v) = 1 + 2 * sum_{n>=1} (-1)^n q^(n^2) cos(2nx)          index 3

So every kernel reads a theta pass and the nullwerte in half-period order
as they come: no other module permutes them.  All four are summed together
in one pass (`_theta4`), whose length follows in closed form from |q|,
|Im v| and the truncation policy.  The pairing of the n-th and (-n)-th
exponential terms (n and -n-1 for the half-integer exponents) is kept as
the sin/cos form above, so the odd series vanishes identically at v = 0
with no cancellation error.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import index

from .errors import NearZeroDenominator, SeriesDivergence

PI = math.pi
_LN2 = math.log(2.0)

class SeriesConfig(namedtuple("SeriesConfig", "abs_tol rel_tol max_terms")):
    """Truncation policy shared by every series and product in the package."""

    __slots__ = ()

    def __new__(cls, abs_tol: float = 1e-16, rel_tol: float = 1e-16, max_terms: int = 256):
        if not (math.isfinite(abs_tol) and math.isfinite(rel_tol)):
            raise ValueError(f"tolerances must be finite, got abs_tol={abs_tol!r}, rel_tol={rel_tol!r}")
        if abs_tol < 0 or rel_tol < 0:
            raise ValueError("tolerances must be non-negative")
        if abs_tol == 0 and rel_tol == 0:
            raise ValueError("at least one of abs_tol/rel_tol must be positive")
        try:
            max_terms = index(max_terms)
        except TypeError:
            raise ValueError(f"max_terms must be an integer, got {max_terms!r}") from None
        if max_terms < 4:
            raise ValueError("max_terms must be >= 4")
        return super().__new__(cls, abs_tol, rel_tol, max_terms)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it validates too.
        return cls(*iterable)


DEFAULT_CONFIG = SeriesConfig()


def _check_idx(idx: int, tau: complex) -> None:
    if idx not in (0, 1, 2, 3):
        raise ValueError(f"theta index must be 0..3, got {idx!r}")
    _check_tau(tau)


def _check_tau(tau: complex) -> None:
    if not tau.imag > 0:
        raise ValueError(f"Im(tau) must be positive, got {tau!r}")


def _quarter_nome(tau: complex) -> complex:
    """q^(1/4) = exp(i*pi*tau/4), the ratio the theta pass starts from."""
    return cmath.exp(0.25j * PI * tau)


def _theta4(v: complex, tau: complex, q4: complex, cfg: SeriesConfig, deriv: bool = False) -> tuple:
    """All four thetas at v, and with deriv their v-derivatives, in one pass;
    q4 is q^(1/4) = `_quarter_nome(tau)`, which every lattice holds
    (`Lattice.q4`).

    With x = pi*v, each term of the four series is C_k = 2 q^(k^2/4) cos(kx)
    or S_k = 2 q^(k^2/4) sin(kx): odd k for indices 0 and 1, even k for 2
    and 3, the alternating series (indices 0 and 3) with the sign (-1)^n.
    Both follow from C_0 = 2, S_0 = 0 by one rotation per step,

        C_{k+1} = r_k (C_k cos x - S_k sin x),  S_{k+1} = r_k (S_k cos x + C_k sin x),

    with r_k = q^((2k+1)/4) advanced by q^(1/2), so no term needs an exp,
    sin or cos (the joint evaluation from shared q-powers of Johansson,
    arXiv:1806.06725).  The sines are carried directly rather than as
    differences of exponentials, so they keep full relative accuracy as
    v -> 0, and the odd series is exactly zero at v = 0.

    Step n adds the terms of k = 2n+1 and 2n+2, and the number of steps is
    fixed before the first; no term is tested.  With y = |Im x| and
    a = pi*Im(tau)/4, the k-th terms are at most 2 e^(k*y - a*k^2) in
    modulus.  The tolerance is tol = abs_tol + rel_tol*scale, where
    scale = min(1, 2 e^(y - a)) bounds the leading terms (the even series
    start from 1, the odd ones from 2 q^(1/4) e^(+-ix)); below y - a = -300,
    where one step meets any tolerance, scale stays at 2 e^-300.  From
    K = (y + R)/(2a) on, with R = sqrt(y^2 + 4a log(1 + 4/tol) + log(2)^2),
    the bounds lie below tol/2 and at least halve from term to term, so the
    terms from K on sum below tol.  The pass runs through the first step
    whose terms both lie past K, so what it omits is a whole step below the
    tolerance, under the rounding of the sums.  A count above cfg.max_terms
    raises SeriesDivergence.  The derivatives ride along, so both modes
    return equal values.

    Returns the four series in DLMF order, (theta_1, ..., theta_4), each
    at the index of the half-period coset it vanishes on, followed with
    deriv by their four v-derivatives in the same order.
    """
    abs_tol, rel_tol, max_terms = cfg
    x = PI * v
    y = abs(x.imag)
    a = 0.25 * PI * tau.imag
    tol = abs_tol + rel_tol * (1.0 if y >= a - _LN2 else 2.0 * math.exp(max(y - a, -300.0)))
    k_min = (y + math.sqrt(y * y + 4.0 * a * math.log(1.0 + 4.0 / tol) + _LN2 * _LN2)) / (2.0 * a)
    if not k_min < 2 * max_terms - 1:
        raise SeriesDivergence(
            f"theta pass: needs more than {max_terms} steps "
            f"(abs_tol={abs_tol}, rel_tol={rel_tol})"
        )
    cos_x = cmath.cos(x)
    sin_x = cmath.sin(x)
    q2 = q4 * q4
    rc = q4 * cos_x
    rs = q4 * sin_x
    c = 2.0 + 0j
    s = 0j
    s0 = s1 = d0 = d1 = d2 = d3 = 0j
    s2 = s3 = 1.0 + 0j
    for n in range(int(0.5 * k_min + 1.5)):
        # k = 2n+1: the n-th terms of indices 0 and 1.
        c, s = c * rc - s * rs, s * rc + c * rs
        rc *= q2
        rs *= q2
        c_odd, s_odd = c, s
        # k = 2n+2: the (n+1)-th terms of indices 2 and 3.
        c, s = c * rc - s * rs, s * rc + c * rs
        rc *= q2
        rs *= q2
        if n & 1:
            s0 -= s_odd
            s3 += c
        else:
            s0 += s_odd
            s3 -= c
        s1 += c_odd
        s2 += c
        if deriv:
            k = 2 * n + 1
            odd_d = k * c_odd
            even_d = (k + 1) * s
            if n & 1:
                d0 -= odd_d
                d3 -= even_d
            else:
                d0 += odd_d
                d3 += even_d
            d1 += k * s_odd
            d2 += even_d
    vals = (s0, s1, s2, s3)
    if not deriv:
        return vals
    return vals + (PI * d0, -PI * d1, -PI * d2, PI * d3)


def theta_eval(idx: int, v: complex, tau: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Value of theta_{idx+1} (DLMF 20.2) at v for half-period ratio tau."""
    _check_idx(idx, tau)
    return _theta4(v, tau, _quarter_nome(tau), cfg)[idx]


def theta_dlog(idx: int, v: complex, tau: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> complex:
    """Logarithmic v-derivative of theta_{idx+1} (DLMF 20.2), from one pass;
    raises NearZeroDenominator only where that theta is exactly 0 at v."""
    _check_idx(idx, tau)
    vals = _theta4(v, tau, _quarter_nome(tau), cfg, deriv=True)
    if vals[idx] == 0:
        raise NearZeroDenominator(f"theta_{idx + 1}({v!r}) is zero")
    return vals[4 + idx] / vals[idx]


def theta_nullwerte(tau: complex, cfg: SeriesConfig = DEFAULT_CONFIG):
    """Nullwerte (theta_2(0), theta_3(0), theta_4(0), theta_1'(0), theta_1'''(0)).

    The first three are indices 1, 2 and 3 at v = 0, in DLMF order, so
    (0, theta_2(0), theta_3(0), theta_4(0)) is indexed by half-period as a
    theta pass is.  The derivatives are those of the odd series theta_1,
    obtained by term-wise differentiation.  All but the third derivative
    come from one theta pass at v = 0, the same pass every evaluation at
    v = 0 runs.  The third derivative sums the terms -2 pi^3 (-1)^n (2n+1)^3 q^((n+1/2)^2),
    with the q-powers by the recurrence q^((n+3/2)^2) = q^((n+1/2)^2) q^(2n+2),
    until two consecutive terms pass the truncation test.
    """
    _check_tau(tau)
    h = _quarter_nome(tau)
    _, t2, t3, t4, tp, _, _, _ = _theta4(0.0, tau, h, cfg, deriv=True)
    q2 = h**8
    ratio = q2
    tppp = 0j
    small = 0
    for n in range(cfg.max_terms):
        term = -2.0 * PI**3 * (2 * n + 1) ** 3 * h
        if n & 1:
            term = -term
        tppp += term
        if abs(term) <= cfg.abs_tol + cfg.rel_tol * abs(tppp):
            small += 1
            if small >= 2:
                return t2, t3, t4, tp, tppp
        else:
            small = 0
        h *= ratio
        ratio *= q2
    raise SeriesDivergence(
        f"theta''': no convergence within {cfg.max_terms} terms "
        f"(abs_tol={cfg.abs_tol}, rel_tol={cfg.rel_tol})"
    )
