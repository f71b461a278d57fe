"""Period lattice construction, argument reduction, and per-lattice constants.

A lattice is generated by the periods (2*omega1, 2*omega3) with
Im(omega3/omega1) > 0, and omega2 = -(omega1 + omega3), so the three
half-periods sum to zero exactly.  Lattice points are
Omega_{n,m} = 2*omega1*n + 2*omega3*m.

`build_lattice` also fixes the cell geometry every located point reads.
`constants` is the one per-lattice record: the theta nullwerte, the
half-period values and invariants, and the Jacobi moduli and complete
integrals, built together once per (lattice, series config).
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

from .errors import ConvergencePolicyError, InvalidPeriodRatio, ValueOverflow, ZeroPeriod
from .theta import DEFAULT_CONFIG, HALF_PERIOD_THETA, SeriesConfig, _quarter_nome, theta_nullwerte

PI = math.pi

# Largest nome |q| build_lattice accepts.
Q_MAX = 0.9

# Theta index of the lattice (0) and of each half-period coset omega_1,
# omega_2, omega_3: the one place where half-period labels meet theta
# indices.  The nullwerte and every theta pass (weier_core._thetas) are held
# in this order, so entry k of either belongs to omega_k + lattice.
HALF_PERIOD_ORDER = (0, HALF_PERIOD_THETA[1], HALF_PERIOD_THETA[2], HALF_PERIOD_THETA[3])

# Cyclic complementary pair for each half-period index.
_COMPLEMENT = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def check_index(lam: int) -> None:
    """ValueError unless lam is a half-period index 1, 2 or 3."""
    if lam not in _COMPLEMENT:
        raise ValueError(f"half-period index must be 1, 2 or 3, got {lam!r}")


def complement(lam: int) -> tuple[int, int]:
    """The ordered pair (mu, nu) completing lam to a permutation of 1,2,3."""
    check_index(lam)
    return _COMPLEMENT[lam]


class Lattice(namedtuple(
    "Lattice", "omega1 omega3 omega2 tau q period1 period3 area min_period q4 offsets"
)):
    """Immutable period lattice with its ratio and nome, and the geometry
    every located point reads, built once by `build_lattice`: the periods
    2*omega1 and 2*omega3, the cell area (the determinant of that basis),
    the shorter period's length, q^(1/4) = exp(i*pi*tau/4) for the theta
    pass, and the coset offsets (0, omega1, omega2, omega3) by half-period
    index."""

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
    return Lattice(
        omega1=omega1, omega3=omega3, omega2=omega2, tau=tau, q=q,
        period1=w1, period3=w3, area=area, min_period=min(abs(w1), abs(w3)), q4=q4,
        offsets=(0j, omega1, omega2, omega3),
    )


def cell_coords(lat: Lattice, u: complex) -> tuple[float, float]:
    """Real coordinates (alpha, beta) with u = 2*alpha*omega1 + 2*beta*omega3."""
    w1, w3, det = lat.period1, lat.period3, lat.area
    alpha = (u.real * w3.imag - u.imag * w3.real) / det
    beta = (w1.real * u.imag - w1.imag * u.real) / det
    return alpha, beta


# A located point: u = 2*alpha*omega1 + 2*beta*omega3 = u_red + 2*n*omega1 + 2*m*omega3.
Located = namedtuple("Located", "u alpha beta u_red n m")

_tuple_new = tuple.__new__  # a named tuple without its Python-level __new__, for per-point records


# Cell coordinates at or past this size have no fractional bit left, so
# rounding them says nothing about where u lies in its cell.
_COORD_LIMIT = 2.0**52


def locate(lat: Lattice, u: complex) -> Located:
    """The one placement of u behind every evaluator: the cell coordinates the
    guard and the zone tests read, and from their rounding the reduction the
    theta pass reads (u_red with cell coordinates in [-1/2, 1/2]).  Cell
    coordinates that are not finite or reach _COORD_LIMIT in size, where no
    digit of the reduction is left, raise ValueOverflow."""
    w1, w3, det = lat.period1, lat.period3, lat.area  # `cell_coords`, written out
    alpha = (u.real * w3.imag - u.imag * w3.real) / det
    beta = (w1.real * u.imag - w1.imag * u.real) / det
    try:
        if not (abs(alpha) < _COORD_LIMIT and abs(beta) < _COORD_LIMIT):
            raise OverflowError
        n, m = round(alpha), round(beta)
        u_red = u - 2 * n * lat.omega1 - 2 * m * lat.omega3
    except OverflowError:
        raise ValueOverflow(f"the cell coordinates of u = {u!r} are too large to reduce") from None
    return _tuple_new(Located, (u, alpha, beta, u_red, n, m))


def reduce_to_cell(lat: Lattice, u: complex) -> tuple[complex, int, int]:
    """(u_red, n, m) of `locate`: u = u_red + 2*n*omega1 + 2*m*omega3."""
    return locate(lat, u)[3:]


def _closest(lat: Lattice, u: complex, offset: complex, alpha: float, beta: float) -> tuple:
    """Distance from u to pt = offset + 2*round(alpha)*omega1 + 2*round(beta)*omega3, and pt."""
    pt = offset + 2 * round(alpha) * lat.omega1 + 2 * round(beta) * lat.omega3
    return abs(u - pt), pt


def nearest_translate(lat: Lattice, u: complex, offset: complex) -> tuple[float, complex]:
    """Distance from u to the coset offset + lattice, and the closest point.

    The point is u - offset with its cell coordinates rounded.  It is the
    closest one whenever the closest lies within h/2 = min_period*sin(theta)/2,
    theta the angle between the periods: h/2 is the inradius of the cell, so
    each cell coordinate is then within 1/2 of the point's.  Farther out the
    distance returned is an upper bound.
    """
    return _closest(lat, u, offset, *cell_coords(lat, u - offset))


# Cell coordinates of the half-period of each index; 0 stands for the lattice.
_HALF_CELL = ((0.0, 0.0), (0.5, 0.0), (-0.5, -0.5), (0.0, 0.5))


def _coset_pairs(lat: Lattice, k: int, r_lo: float, r_hi: float) -> list:
    """P = p*p for one point p of each pair +-p of omega_k + lattice (k = 0
    the lattice itself) with r_lo < |p| <= r_hi.

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
    two_w1, two_w3 = lat.period1, lat.period3
    alpha, beta = _HALF_CELL[k]
    offset = alpha * two_w1 + beta * two_w3
    w1sq = abs(two_w1) ** 2
    row_gap = abs(lat.area) / abs(two_w1)
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


def nearest(lat: Lattice, p: Located, k: int) -> tuple[float, complex]:
    """`nearest_translate` to the coset omega_k + lattice (k = 0 the lattice),
    from the located point's own cell coordinates.  For the lattice these are
    already rounded to the point's n, m; `_closest`'s arithmetic is kept, so
    the distance and the point are its bits."""
    if k == 0:
        pt = 0j + 2 * p.n * lat.omega1 + 2 * p.m * lat.omega3
        return abs(p.u - pt), pt
    a, b = _HALF_CELL[k]
    return _closest(lat, p.u, lat.offsets[k], p.alpha - a, p.beta - b)


# The AGM stops once |c_n| <= AGM_TOL * |a_n|.
AGM_TOL = 1e-15


JacobiParams = namedtuple(
    "JacobiParams", "k kprime big_k big_e scale lattice cfg sigma_factor nullwerte"
)
JacobiParams.__doc__ = """Moduli, complete integrals, the lattice they came from,
and the record's sigma normalisation (`sigma_factor`, `nullwerte`), so that
sn, cn and dn need no constants lookup."""


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
    "e1 e2 e3 ediffs eta1 eta2 eta3 g2 g3 disc ksq kpsq nullwerte nullwert_prime jacobi"
    " sigma_factor zones degenerate",
)):
    """Per-lattice state: half-period values and their differences, elliptic
    invariants, squared moduli, the theta nullwerte every evaluation divides
    by, the Jacobi parameters, and the per-lattice factors and radii the
    evaluators read at every point.

    `nullwerte` is in half-period order (HALF_PERIOD_ORDER): `nullwerte[k]`
    is theta(0) of the theta that vanishes on omega_k + lattice, and
    `nullwerte[0]`, the odd theta's, is exactly 0.  `nullwert_prime` is the
    odd theta's derivative at 0.  `ediffs` holds (e2 - e3, e1 - e3, e1 - e2)
    as the nullwerte give them; read them through `ediff`, never as a
    difference of the rounded e's, which cancels on tall lattices.  `jacobi`
    holds the moduli, the complete integrals and the scale of the Jacobi
    bridge.  `sigma_factor` is 2*omega1/theta'(0), the factor of the odd
    theta in sigma.  `zones[k - 1]` is the radius around omega_k inside
    which zeta_diff's wp forms give way to the sigma form: at distance d,
    wp - e_k ~ A_k d^2 with A_k = (e_k - e_i)(e_k - e_j), so the forms lose
    about eps*max|e|/(|A_k| d^2) to rounding, and within ten times that
    against bench/reference.py; the zone ends where ten times it is 1e-9.
    `degenerate` is true when `jacobi_params` refuses the lattice:
    |disc| <= 1e-10 * max(|g2|^3, 27 |g3|^2).  Both are taken on the e
    differences scaled by 2^-2k, 2k the even number at or below the binary
    exponent of max |e|.  That scaling is exact, so the zones and the
    decision are the unscaled ones wherever those powers are normal numbers,
    and they stay in range at any scale of the lattice.
    """

    __slots__ = ()

    def e(self, lam: int) -> complex:
        return (self.e1, self.e2, self.e3)[lam - 1]

    def ediff(self, lam: int, mu: int) -> complex:
        """e_lam - e_mu for distinct indices: (pi/(2*omega1))^2 nullwerte[nu]^4
        for lam < mu, nu the third index, and its negative for lam > mu."""
        d = self.ediffs[5 - lam - mu]
        return d if lam < mu else -d

    def eta(self, lam: int) -> complex:
        return (self.eta1, self.eta2, self.eta3)[lam - 1]


def constants(lat: Lattice, cfg: SeriesConfig = DEFAULT_CONFIG) -> LatticeConstants:
    """All per-lattice constants, from theta nullwerte.

    This cache is the one per-lattice state of the package: the nullwerte
    are summed here once, and the Jacobi parameters are built with them.
    It is keyed on (lat, cfg) however cfg is passed; `constants.cache_info()`
    reports it.
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
    t1, t2, t3, tp, tppp = theta_nullwerte(lat.tau, cfg)
    nw = tuple((0j, t1, t2, t3)[i] for i in HALF_PERIOD_ORDER)
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
    sigma_factor = 2 * w1 / tp
    jacobi = JacobiParams(
        k=cmath.sqrt(ksq), kprime=cmath.sqrt(kpsq), big_k=big_k, big_e=big_e,
        scale=cmath.sqrt(e1 - e3), lattice=lat, cfg=cfg, sigma_factor=sigma_factor, nullwerte=nw,
    )
    e_max = max(abs(e1), abs(e2), abs(e3))
    k = math.frexp(e_max)[1] // 2
    s12, s13, s23 = (
        complex(math.ldexp(d.real, -2 * k), math.ldexp(d.imag, -2 * k)) for d in (d12, d13, d23)
    )
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
        g2=g2, g3=g3, disc=disc, ksq=ksq, kpsq=kpsq,
        nullwerte=nw, nullwert_prime=tp, jacobi=jacobi, sigma_factor=sigma_factor, zones=zones,
        degenerate=abs(discs) <= 1e-10 * max(abs(g2s) ** 3, 27 * abs(g3s) ** 2, 1e-300),
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


def _disc_pairs(lat: Lattice, radius: int) -> list:
    """P = p*p for one point p of each pair +-p of the lattice inside the
    disc |p| <= radius * min period, the pairs the lattice-sum oracles sum.

    The cutoff is symmetric in the plane metric, which is what makes the
    slowly convergent lattice tails cancel angularly; a square index-box
    cutoff leaves an O(radius^-2) bias that symmetric truncation removes.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return _coset_pairs(lat, 0, 0.0, radius * lat.min_period)


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
    inv = [1.0 / big_p for big_p in _disc_pairs(lat, shell_radius)]
    inv2 = [x * x for x in inv]
    return 120.0 * _fsum(inv2), 280.0 * _fsum(map(mul, inv2, inv))
