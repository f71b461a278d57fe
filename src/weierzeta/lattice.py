"""Period lattice construction, argument reduction, and per-lattice constants.

A lattice is generated by the periods (2*omega1, 2*omega3) with
Im(omega3/omega1) > 0, and omega2 = -(omega1 + omega3), so the three
half-periods sum to zero exactly.  Lattice points are
Omega_{n,m} = 2*omega1*n + 2*omega3*m.

`build_lattice` also fixes the cell geometry every located point reads.
`constants` is the one per-lattice record: the theta nullwerte, the
half-period values and invariants, and the Jacobi moduli and complete
integrals, built together once per (lattice, series config), and the
partial-fraction route's coset tables, filled on first use.
`_coset_pairs` is the one enumerator of a coset's pairs +-p inside a
circle, as their squares p*p: the lattice-sum oracles sum the lattice's over
a disc, and the partial-fraction route (`aux_zeta`) sums each coset's.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .errors import ConvergencePolicyError, IdenticalIndices, InvalidPeriodRatio, ValueOverflow, ZeroPeriod
from .theta import DEFAULT_CONFIG, SeriesConfig, _quarter_nome, theta_nullwerte

PI = math.pi

# Largest nome |q| build_lattice accepts.
Q_MAX = 0.9

# The pole radius: a point within NEAR_POLE_FACTOR * min_period of a pole
# coset is at or near a pole.
NEAR_POLE_FACTOR = 1e-8

# Cyclic complementary pair for each half-period index.
_COMPLEMENT = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def check_index(lam: int) -> None:
    """ValueError unless lam is a half-period index 1, 2 or 3."""
    if lam not in _COMPLEMENT:
        raise ValueError(f"half-period index must be 1, 2 or 3, got {lam!r}")


def check_pair(lam: int, mu: int) -> None:
    """check_index of each, then IdenticalIndices for lam == mu."""
    check_index(lam)
    check_index(mu)
    if lam == mu:
        raise IdenticalIndices(f"half-period indices must differ, got {lam} twice")


def complement(lam: int) -> tuple[int, int]:
    """The ordered pair (mu, nu) completing lam to a permutation of 1,2,3."""
    check_index(lam)
    return _COMPLEMENT[lam]


class Lattice(namedtuple(
    "Lattice",
    "omega1 omega3 omega2 tau q period1 period3 area min_period heights q4 offsets pole_radius pole_reach",
)):
    """Immutable period lattice with its ratio and nome, and the geometry
    every located point reads, built once by `build_lattice`: the periods
    2*omega1 and 2*omega3, the cell area (the determinant of that basis),
    the shorter period's length, the cell's two heights |area|/|2*omega3|
    and |area|/|2*omega1| (the spacing of its rows along each period),
    which `near` rejects distant points by, or (0, 0) on a cell where
    `near`'s margin does not hold, q^(1/4) = exp(i*pi*tau/4) for the theta
    pass, the coset offsets (0, omega1, omega2, omega3) by half-period
    index, and the pole radius NEAR_POLE_FACTOR * min_period with its
    `reach`, which every pole guard reads."""

    __slots__ = ()

    def __hash__(self) -> int:
        # The half-periods fix every other field; hashing them alone keeps
        # the cost of a `constants` lookup independent of the derived fields.
        return hash((self.omega1, self.omega3))

    def half_period(self, lam: int) -> complex:
        check_index(lam)
        return self.offsets[lam]


def build_lattice(omega1: complex, omega3: complex) -> Lattice:
    """Validate half-periods and derive tau, q, omega2 and the cell geometry.

    Raises ZeroPeriod, InvalidPeriodRatio, or ConvergencePolicyError when the
    nome magnitude exceeds Q_MAX (theta series degrade; no modular reduction
    is attempted) or q^(1/4) underflows to 0.  Periods whose cell area is 0
    or not finite in floating point raise ZeroPeriod or ValueOverflow.
    """
    omega1 = complex(omega1)
    omega3 = complex(omega3)
    if omega1 == 0 or omega3 == 0:
        raise ZeroPeriod("half-periods must be non-zero")
    tau = omega3 / omega1
    if not tau.imag > 0:
        raise InvalidPeriodRatio(f"Im(omega3/omega1) must be positive, got {tau!r}")
    q = cmath.exp(1j * PI * tau)
    if abs(q) > Q_MAX:
        raise ConvergencePolicyError(
            f"|q| = {abs(q):.6g} exceeds Q_MAX = {Q_MAX}; lattice too extreme for the series"
        )
    q4 = _quarter_nome(tau)
    if q4 == 0:
        raise ConvergencePolicyError(f"q^(1/4) underflows to 0 at Im(tau) = {tau.imag:.6g}")
    w1, w3 = 2 * omega1, 2 * omega3
    area = w1.real * w3.imag - w1.imag * w3.real
    if area == 0:
        raise ZeroPeriod(f"the periods {w1!r}, {w3!r} span a cell of area 0 in floating point")
    if not math.isfinite(area):
        raise ValueOverflow(f"the area of the cell of periods {w1!r}, {w3!r} overflows")
    omega2 = -(omega1 + omega3)
    min_period = min(abs(w1), abs(w3))
    pole_radius = NEAR_POLE_FACTOR * min_period
    heights = (abs(area) / abs(w3), abs(area) / abs(w1))
    lengths = abs(w1) + abs(w3)
    if not (2.0**-300 < min(heights) and lengths <= _ASPECT * min(heights) and lengths < 2.0**300):
        heights = (0.0, 0.0)  # `near` measures every distance
    return Lattice(
        omega1=omega1, omega3=omega3, omega2=omega2, tau=tau, q=q, period1=w1, period3=w3,
        area=area, min_period=min_period, heights=heights, q4=q4, offsets=(0j, omega1, omega2, omega3),
        pole_radius=pole_radius, pole_reach=reach(pole_radius, min_period),
    )


class Located:
    """A located point, made by `locate` alone: the lattice and the series
    config every guard and kernel reads here, u = 2*alpha*omega1 +
    2*beta*omega3 = u_red + 2*n*omega1 + 2*m*omega3, the reduced gaps
    |alpha - n| and |beta - m| that `near` reads (None for a far point, which
    `near` always measures), and the theta pass at u_red under cfg, which
    `weier_core._thetas` fills on first use (None until then)."""

    __slots__ = ("lat", "cfg", "u", "alpha", "beta", "u_red", "n", "m", "gap_alpha", "gap_beta", "thetas",
                 "__weakref__")

    def __init__(self, lat, cfg, u, alpha, beta, u_red, n, m, gap_alpha, gap_beta):
        self.lat = lat
        self.cfg = cfg
        self.u = u
        self.alpha = alpha
        self.beta = beta
        self.u_red = u_red
        self.n = n
        self.m = m
        self.gap_alpha = gap_alpha
        self.gap_beta = gap_beta
        self.thetas = None


# Cell coordinates at or past this size have no fractional bit left, so
# rounding them says nothing about where u lies in its cell.
_COORD_LIMIT = 2.0**52


def locate(lat: Lattice, u: complex, cfg: SeriesConfig) -> Located:
    """The one placement of u behind every evaluator, on lat under cfg, which
    the point keeps: the cell coordinates, and from their rounding the
    reduction the theta pass reads (u_red with cell coordinates in
    [-1/2, 1/2]) and the gaps |alpha - n|, |beta - m| every coset test of
    the point reads (`near`), taken here once with the far-point test.  Cell
    coordinates that are not finite or reach _COORD_LIMIT in size, where no
    digit of the reduction is left, raise ValueOverflow."""
    w1, w3, det = lat.period1, lat.period3, lat.area
    alpha = (u.real * w3.imag - u.imag * w3.real) / det
    beta = (w1.real * u.imag - w1.imag * u.real) / det
    size_alpha, size_beta = abs(alpha), abs(beta)
    try:
        if not (size_alpha < _COORD_LIMIT and size_beta < _COORD_LIMIT):
            raise OverflowError
        n, m = round(alpha), round(beta)
        u_red = u - 2 * n * lat.omega1 - 2 * m * lat.omega3
    except OverflowError:
        raise ValueOverflow(f"the cell coordinates of u = {u!r} are too large to reduce") from None
    if size_alpha + size_beta < _FAR_CELLS:
        return Located(lat, cfg, u, alpha, beta, u_red, n, m, abs(alpha - n), abs(beta - m))
    return Located(lat, cfg, u, alpha, beta, u_red, n, m, None, None)


def reduce_to_cell(lat: Lattice, u: complex) -> tuple[complex, int, int]:
    """(u_red, n, m) of `locate`: u = u_red + 2*n*omega1 + 2*m*omega3.  No
    theta pass is taken, so the point's config is never read."""
    p = locate(lat, u, DEFAULT_CONFIG)
    return p.u_red, p.n, p.m


def nearest_translate(lat: Lattice, u: complex, offset: complex) -> tuple[float, complex]:
    """Distance from u to the coset offset + lattice, and the point: offset
    plus the translate `locate` rounds u - offset to (so u is refused where
    `locate` refuses).  It is the closest one whenever the closest lies within
    the cell's inradius h/2 = min_period*sin(theta)/2, theta the angle between
    the periods, where each cell coordinate is within 1/2 of u's; farther out
    the distance is an upper bound."""
    p = locate(lat, u - offset, DEFAULT_CONFIG)
    pt = offset + 2 * p.n * lat.omega1 + 2 * p.m * lat.omega3
    return abs(u - pt), pt


# Cell coordinates of the half-period of each index; 0 stands for the lattice.
# The coset distances (`nearest`), the translate signs (`_translate_sign`) and
# the pair enumerator (`_coset_pairs`) read the half-periods here alone.
_HALF_CELL = ((0.0, 0.0), (0.5, 0.0), (-0.5, -0.5), (0.0, 0.5))


def nearest(p: Located, k: int) -> tuple[float, complex]:
    """`nearest_translate` to the coset omega_k + lattice (k = 0 the lattice),
    from the located point's cell coordinates less omega_k's, rounded: for
    the lattice the translate's n, m are the point's own.  The one
    coset-distance formula; the guards reach it through `near`, which calls
    it only for a point within reach of the coset."""
    a, b = _HALF_CELL[k]
    lat = p.lat
    pt = lat.offsets[k] + 2 * round(p.alpha - a) * lat.omega1 + 2 * round(p.beta - b) * lat.omega3
    return abs(p.u - pt), pt


# `near` rejects by cell coordinates only for |alpha| + |beta| < _FAR_CELLS
# (`locate` gives a far point no gaps), on cells with |2*omega1| +
# |2*omega3| <= _ASPECT * min(heights) (`build_lattice` zeroes the heights of
# any other), and with _SLACK min_periods added to the radius (`reach`);
# `near` derives the margin.
_FAR_CELLS = 2.0**16
_ASPECT = 2.0**16
_SLACK = 2.0**-16


def reach(r: float, min_period: float) -> float:
    """r + _SLACK*min_period, within which `near` measures a distance; its
    owner takes it once per radius (`build_lattice`, `constants`)."""
    return r + _SLACK * min_period


# The distance of each coset's cell coordinates from the nearest integers:
# 0 or 1/2.
_HALF_GAP = tuple((abs(a), abs(b)) for a, b in _HALF_CELL)


def near(p: Located, k: int, r: float, r_reach: float) -> tuple[float, complex] | None:
    """Is the located point p within r of omega_k + lattice?  `nearest`'s
    (dist, translate) when dist < r, else None; `nearest` runs only for a
    point within r_reach = `reach`(r, min_period), which the caller takes
    once per radius (`Lattice.pole_reach`, `LatticeConstants.zone_reaches`).

    With (a, b) omega_k's cell coordinates, every point of the coset is
    u - (alpha - a - n)*2*omega1 - (beta - b - m)*2*omega3 for integers n,
    m, so its distance from u is at least |alpha - a - n| * h1 and
    |beta - b - m| * h3, (h1, h3) = `heights`: at least g*h, g the gap from
    alpha - a (or beta - b) to the nearest integer, read from the point's
    reduced gap |alpha - p.n| (`locate` stores it) as | |alpha - p.n| - |a| |.
    A point with g*h >= r + _SLACK*min_period is rejected, since then
    `nearest`'s distance, to whichever translate it rounds to, is at least r.

    The margin.  With eps = 2^-53, W = |2*omega1| + |2*omega3| and |alpha| +
    |beta| < F = _FAR_CELLS (so |n|, |m| <= F + 1 for any translate
    `nearest` rounds to): alpha's numerator is rounded by
    2*eps*|u|*|2*omega3| and the area by 2*eps*|2*omega1|*|2*omega3|, which
    is 2*eps*|u| + 3*eps*|alpha|*|2*omega1| once multiplied by h1; the
    computed h1 is off by eps*|2*omega1| + eps*h1 at g <= 1/2, and the gap
    itself by eps*h1 (alpha - p.n is exact); nearest's translate is off by
    3*eps*(|omega_k| + |n|*|2*omega1| + |m|*|2*omega3|) plus eps*W/2 for the
    rounded omega2, and its abs by 2*eps of itself.  With |u| <=
    |alpha|*|2*omega1| + |beta|*|2*omega3| these sum below 12*eps*(F + 2)*W,
    and the relative terms (r < g*h <= W/2) are smaller still.  On a cell
    with W <= _ASPECT * min(heights) <= _ASPECT * min_period that is below
    16*eps*(F + 2)*_ASPECT*min_period < _SLACK*min_period.  `build_lattice`
    also keeps the heights within [2^-300, 2^300], where every product is
    a normal number or its underflow is far below the slack.  A far point
    (|alpha| + |beta| >= F, which `locate` gives no gaps) and a cell with zero
    heights always measure the distance.  The gaps and the reach are these
    expressions, each evaluated once, so the margin holds as derived."""
    gap_alpha = p.gap_alpha
    if gap_alpha is not None:
        a, b = _HALF_GAP[k]
        h1, h3 = p.lat.heights
        if abs(a - gap_alpha) * h1 >= r_reach or abs(b - p.gap_beta) * h3 >= r_reach:
            return None
    hit = nearest(p, k)
    return hit if hit[0] < r else None


def _translate_sign(p: Located, k: int) -> float:
    """The sign by which sigma_k's quasi-periodicity at the translate (n, m)
    of p differs from sigma's (1 for k = 0): exp(eta_Omega*omega_k -
    eta_k*Omega) = exp(2*pi*i*(n*b - m*a)) by the Legendre relation, with
    (a, b) the cell coordinates of omega_k."""
    a, b = _HALF_CELL[k]
    return -1.0 if (p.n * b - p.m * a) % 1 else 1.0


# Most pairs `_coset_pairs` lists, by its estimate pi*r_hi^2/(2*|area|):
# well above the largest counts in use on thin bases, about 3e5 for the
# partial-fraction tables and 1.9e6 for the oracles at 200 min periods.
MAX_PAIRS = 2**22


def _ldexp(z: complex, e: int) -> complex:
    """z * 2^e, exact wherever both parts stay normal numbers."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _coset_pairs(lat: Lattice, k: int, r_lo: float, r_hi: float, e: int = 0) -> list:
    """P = p*p for one point p of each pair +-p of omega_k + lattice (k = 0
    the lattice itself) with r_lo < |p| <= r_hi, all in units of 2^e: the
    pairs are listed on the lattice scaled by 2^-e, which is exact, so on a
    lattice far from unit scale the caller picks e to keep every product
    here in range.  A disc of radius r_hi holds about pi*r_hi^2/(2*|area|)
    pairs; past MAX_PAIRS this raises ConvergencePolicyError before listing
    any.

    Every coset is symmetric under p -> -p, so each pair is one term in P.
    With (alpha, beta) the coset's cell coordinates (_HALF_CELL),
    p = omega_k + 2n*omega1 + 2m*omega3 is the representative of its pair
    when (m + beta, n + alpha) > (0, 0) in lexicographic order: chosen by
    index, since Re p is exactly 0 on some lattices and rounding need not
    keep -p the negative of p.  Each row of fixed m holds its points on a
    line, so the n with |p| <= r_hi lie between the roots of a quadratic in
    n; one more n either side absorbs their rounding.  A row tangent to the
    circle has a discriminant of 0 that rounding can make negative, so only
    a clearly negative one skips the row."""
    two_w1, two_w3 = _ldexp(lat.period1, -e), _ldexp(lat.period3, -e)
    area = abs(math.ldexp(lat.area, -2 * e))
    estimate = PI * r_hi * r_hi / (2 * area)
    if estimate > MAX_PAIRS:
        raise ConvergencePolicyError(
            f"about {estimate:.3g} pairs of the coset lie within |p| <= {math.ldexp(r_hi, e):.6g} on the "
            f"half-periods {lat.omega1!r}, {lat.omega3!r}, more than MAX_PAIRS = {MAX_PAIRS}; "
            "a reduced basis needs fewer"
        )
    alpha, beta = _HALF_CELL[k]
    offset = alpha * two_w1 + beta * two_w3
    w1sq = abs(two_w1) ** 2
    row_gap = area / abs(two_w1)
    out = []
    for m in range(math.ceil(-beta), int((r_hi / row_gap) - beta) + 2):
        c = offset + m * two_w3
        b = c.real * two_w1.real + c.imag * two_w1.imag
        csq = abs(c) ** 2
        disc = b * b - w1sq * (csq - r_hi * r_hi)
        if disc < -1e-9 * w1sq * (csq + r_hi * r_hi):
            continue
        root = math.sqrt(max(disc, 0.0))
        n_lo = math.floor((-b - root) / w1sq) - 1
        if m + beta == 0:
            n_lo = max(n_lo, math.floor(-alpha) + 1)
        for n in range(n_lo, math.ceil((-b + root) / w1sq) + 2):
            pt = offset + n * two_w1 + m * two_w3
            if r_lo < abs(pt) <= r_hi:
                out.append(pt * pt)
    return out


# The AGM stops once |c_n| <= AGM_TOL * |a_n|.
AGM_TOL = 1e-15


def agm_complete_integrals(ksq: complex, kpsq: complex) -> tuple[complex, complex]:
    """Complete integrals (K, E) for squared moduli via the AGM iteration.

    The geometric-mean branch is chosen so that |a - b| <= |a + b| at every
    step (the convergent chain); quadratic convergence gives full precision
    in about ten iterations for moduli away from 1.
    """
    a = 1.0 + 0j
    b = cmath.sqrt(kpsq)
    if abs(b - 1) > abs(b + 1):
        b = -b
    csum = 0.5 * ksq  # 2^(n-1) * c_n^2 accumulated, n = 0 term is ksq/2
    pow2 = 0.5
    for _ in range(60):
        c = (a - b) / 2
        a, b = (a + b) / 2, cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
        pow2 *= 2
        csum += pow2 * c * c
        if abs(c) <= AGM_TOL * abs(a):
            break
    big_k = PI / (2 * a)
    big_e = big_k * (1 - csum)
    return big_k, big_e


class LatticeConstants(namedtuple(
    "LatticeConstants",
    "e1 e2 e3 ediffs eta1 eta2 eta3 g2 g3 disc ksq kpsq k kprime big_k big_e scale nullwerte nullwert_prime"
    " sigma_factor zones zone_reaches degenerate pair_tables lattice cfg",
)):
    """Per-lattice state: half-period values and their differences, elliptic
    invariants, the moduli and complete integrals of the Jacobi bridge, the
    theta nullwerte every evaluation divides by, and the per-lattice factors
    and radii the evaluators read at every point, with the lattice and
    series config they were built for.

    `nullwerte[k]` is theta_{k+1}(0) (`theta` numbers the series as DLMF
    does), the nullwert of the theta that vanishes on omega_k + lattice, and
    `nullwerte[0]`, the odd theta's, is exactly 0.  `nullwert_prime` is the
    odd theta's derivative at 0.  `ediffs` holds (e2 - e3, e1 - e3, e1 - e2)
    as the nullwerte give them; read them through `ediff`, never as a
    difference of the rounded e's, which cancels on tall lattices.  `k` and
    `kprime` are the principal roots of `ksq` and `kpsq`, `big_k` and `big_e`
    the complete integrals K(k) and E(k) by the AGM, and `scale` = sqrt(e1 -
    e3) takes u to the Jacobi argument x = scale*u.  `sigma_factor` is
    2*omega1/theta'(0), the factor of the odd theta in sigma.
    `zones[k - 1]` is the radius around omega_k inside which zeta_diff's wp
    forms give way to the sigma form: at distance d, wp - e_k ~ A_k d^2
    with A_k = (e_k - e_i)(e_k - e_j), so the forms lose about
    eps*max|e|/(|A_k| d^2) to rounding, and within ten times that
    against bench/reference.py; the zone ends where ten times it is 1e-9.
    `zone_reaches[k - 1]` is that zone's `reach`, which `near` reads.
    `degenerate` is true when `jacobi_params` refuses the lattice:
    |disc| <= 1e-10 * max(|g2|^3, 27 |g3|^2).  Both are taken on the e
    differences scaled by 2^-2k, 2k the even number at or below the binary
    exponent of max |e|.  That scaling is exact, so the zones and the
    decision are the unscaled ones wherever those powers are normal numbers,
    and they stay in range at any scale of the lattice.
    `pair_tables[lam - 1]` holds the partial-fraction route's tables for the
    coset omega_lam + lattice, None until `aux_zeta._coset_tables` fills it
    (two threads racing there build equal tables, and either is kept).
    The record is hashed on its `lattice` and series config `cfg`, which fix
    every other field.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash((self.lattice, self.cfg))

    def e(self, lam: int) -> complex:
        check_index(lam)
        return (self.e1, self.e2, self.e3)[lam - 1]

    def ediff(self, lam: int, mu: int) -> complex:
        """e_lam - e_mu for distinct indices: (pi/(2*omega1))^2 nullwerte[nu]^4
        for lam < mu, nu the third index, and its negative for lam > mu."""
        check_pair(lam, mu)
        d = self.ediffs[5 - lam - mu]
        return d if lam < mu else -d

    def eta(self, lam: int) -> complex:
        check_index(lam)
        return (self.eta1, self.eta2, self.eta3)[lam - 1]


def constants(lat: Lattice, cfg: SeriesConfig = DEFAULT_CONFIG) -> LatticeConstants:
    """All per-lattice constants, from theta nullwerte.

    This cache is the one per-lattice state of the package: the nullwerte
    are summed here once, the Jacobi moduli and integrals are built with
    them, and the partial-fraction tables are kept in the record
    (`pair_tables`), so they live and are evicted with it.  It is keyed on (lat, cfg) however
    cfg is passed; `constants.cache_info()` reports it.
    """
    return _constants(lat, cfg)


@lru_cache(maxsize=128)
def _constants(lat: Lattice, cfg: SeriesConfig) -> LatticeConstants:
    """The half-period differences d_lam_mu = e_lam - e_mu come from the
    nullwerte fourth powers (DLMF 23.6(i)), and the discriminant and the
    squared moduli straight from them, so no difference of rounded e's
    enters: disc = 16 (d12 d13 d23)^2, k^2 = d23/d13, k'^2 = d12/d13; the
    record keeps the d's for every formula that needs one (`ediff`).  Each
    individual e comes from 3*e_lam = (e_lam - e_mu) + (e_lam - e_nu); eta1
    from the third-derivative nullwert, eta3 from the Legendre relation
    eta1*omega3 - eta3*omega1 = i*pi/2, and eta2 = -eta1 - eta3.
    """
    t2, t3, t4, tp, tppp = theta_nullwerte(lat.tau, cfg)
    nw = (0j, t2, t3, t4)
    w1 = lat.omega1
    try:
        c = (PI / (2 * w1)) ** 2
    except OverflowError:
        raise ValueOverflow(f"(pi/(2*omega1))^2 overflows at omega1 = {w1!r}") from None
    d12 = c * nw[3] ** 4
    d13 = c * nw[2] ** 4
    d23 = c * nw[1] ** 4
    e1, e2, e3, g2, g3, disc = _invariants(d12, d13, d23)
    eta1 = -tppp / (12 * w1 * tp)
    eta3 = (eta1 * lat.omega3 - 1j * PI / 2) / w1
    eta2 = -eta1 - eta3
    ksq = d23 / d13
    kpsq = d12 / d13
    big_k, big_e = agm_complete_integrals(ksq, kpsq)
    e_max = max(abs(e1), abs(e2), abs(e3))
    k = math.frexp(e_max)[1] // 2
    s12, s13, s23 = (_ldexp(d, -2 * k) for d in (d12, d13, d23))
    *_, g2s, g3s, discs = _invariants(s12, s13, s23)
    # Each zone scales as the periods do: taken on the differences scaled by
    # 2^-2k, it is the unscaled one times 2^k, exactly.
    zones = tuple(
        math.ldexp(math.sqrt(10 * sys.float_info.epsilon * math.ldexp(e_max, -2 * k) / (1e-9 * a)), -k)
        if a else math.inf
        for a in (abs(s12 * s13), abs(s12 * s23), abs(s13 * s23))
    )
    return LatticeConstants(
        e1=e1, e2=e2, e3=e3, ediffs=(d23, d13, d12), eta1=eta1, eta2=eta2, eta3=eta3,
        g2=g2, g3=g3, disc=disc, ksq=ksq, kpsq=kpsq, k=cmath.sqrt(ksq), kprime=cmath.sqrt(kpsq),
        big_k=big_k, big_e=big_e, scale=cmath.sqrt(e1 - e3), nullwerte=nw, nullwert_prime=tp,
        sigma_factor=2 * w1 / tp, zones=zones, zone_reaches=tuple(reach(z, lat.min_period) for z in zones),
        degenerate=abs(discs) <= 1e-10 * max(abs(g2s) ** 3, 27 * abs(g3s) ** 2, 1e-300),
        pair_tables=[None, None, None], lattice=lat, cfg=cfg,
    )


def _invariants(d12: complex, d13: complex, d23: complex) -> tuple:
    """(e1, e2, e3, g2, g3, disc) from the e differences: 3*e_lam =
    (e_lam - e_mu) + (e_lam - e_nu), and disc = 16 (d12 d13 d23)^2, squared
    by a product, which overflows to inf where a complex power raises."""
    e1 = (d12 + d13) / 3
    e2 = (-d12 + d23) / 3
    e3 = (-d13 - d23) / 3
    g2 = -4 * (e1 * e2 + e2 * e3 + e3 * e1)
    g3 = 4 * e1 * e2 * e3
    prod = d12 * d13 * d23
    return e1, e2, e3, g2, g3, 16 * (prod * prod)


constants.cache_info = _constants.cache_info


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def constants_to_json(lat: Lattice, lc: LatticeConstants) -> dict:
    """JSON-ready dict with complex numbers as [re, im] pairs.  Invariants
    beyond float range (g2 ~ omega^-4, g3 ~ omega^-6, disc ~ omega^-12 on a
    lattice far from unit scale) raise ValueOverflow: JSON has no NaN."""
    for name in ("g2", "g3", "disc"):
        if not cmath.isfinite(getattr(lc, name)):
            raise ValueOverflow(f"{name} is not finite at omega1 = {lat.omega1!r}")
    return {
        "omega1": _pair(lat.omega1),
        "omega3": _pair(lat.omega3),
        "tau": _pair(lat.tau),
        "q": _pair(lat.q),
        "e": [_pair(lc.e1), _pair(lc.e2), _pair(lc.e3)],
        "eta": [_pair(lc.eta1), _pair(lc.eta2), _pair(lc.eta3)],
        "g2": _pair(lc.g2),
        "g3": _pair(lc.g3),
        "disc": _pair(lc.disc),
        "ksq": _pair(lc.ksq),
        "kpsq": _pair(lc.kpsq),
    }


def _disc_pairs(lat: Lattice, radius: int) -> tuple[list, int]:
    """(pairs, e): P = p*p for one point p of each pair +-p of the lattice
    inside the disc |p| <= radius * min period, the pairs the lattice-sum
    oracles sum, in units of 2^e with 1 <= |2*omega1|/2^e < 2, as
    `aux_zeta._coset_tables` takes its pairs, so no product of them leaves
    the float range at any scale of the lattice.  Each oracle sums at u
    scaled by 2^-e and scales its result back (`_unscaled`).

    The cutoff is symmetric in the plane metric, which is what makes the
    slowly convergent lattice tails cancel angularly; a square index-box
    cutoff leaves an O(radius^-2) bias that symmetric truncation removes.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    e = math.frexp(abs(lat.period1))[1] - 1
    return _coset_pairs(lat, 0, 0.0, radius * math.ldexp(lat.min_period, -e), e), e


def _unscaled(z: complex, e: int) -> complex:
    """z * 2^e, an oracle's sum z taken on the lattice scaled to unit size
    and scaled back by its weight; ValueOverflow where that overflows or
    underflows to 0 from a nonzero z."""
    try:
        out = _ldexp(z, e)
        if out or not z:
            return out
    except OverflowError:
        pass
    raise ValueOverflow(f"a lattice sum, {z!r} times 2^{e}, is outside the float range")


def _fsum(terms) -> complex:
    """The sum of complex terms, each part exactly rounded (`math.fsum`), so
    it does not depend on their order."""
    terms = list(terms)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def eisenstein_invariants(lat: Lattice, shell_radius: int) -> tuple[complex, complex]:
    """(g2, g3) by direct truncated lattice sums 60*sum(1/Omega^4), 140*sum(1/Omega^6),
    taken over the pairs +-Omega as 120*sum(P^-2), 280*sum(P^-3) with P = Omega^2.

    Truncated at |Omega| <= shell_radius * min period; serves as an
    independent oracle for `constants`, not as a production path.
    """
    pairs, e = _disc_pairs(lat, shell_radius)
    inv = [1.0 / big_p for big_p in pairs]
    inv2 = [x * x for x in inv]
    return _unscaled(120.0 * _fsum(inv2), -4 * e), _unscaled(280.0 * _fsum(map(mul, inv2, inv)), -6 * e)
