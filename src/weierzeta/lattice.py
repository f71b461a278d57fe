"""Period lattice construction, argument reduction, and per-lattice constants.

A lattice is generated by the periods (2*omega1, 2*omega3) with
Im(omega3/omega1) > 0, and omega2 = -(omega1 + omega3), so the three
half-periods sum to zero exactly.  Lattice points are
Omega_{n,m} = 2*omega1*n + 2*omega3*m.

`constants` is the one per-lattice record: the theta nullwerte, the
half-period values and invariants, and the Jacobi moduli and complete
integrals, built together once per (lattice, series config).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergencePolicyError, InvalidPeriodRatio, ZeroPeriod
from .theta import DEFAULT_CONFIG, HALF_PERIOD_THETA, SeriesConfig, theta_nullwerte

PI = math.pi

# Largest nome |q| build_lattice accepts.
Q_MAX = 0.9

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


@dataclass(frozen=True)
class Lattice:
    """Immutable period lattice with its ratio and nome."""

    omega1: complex
    omega3: complex
    omega2: complex
    tau: complex
    q: complex

    def half_period(self, lam: int) -> complex:
        check_index(lam)
        return (self.omega1, self.omega2, self.omega3)[lam - 1]

    @property
    def min_period(self) -> float:
        return min(abs(2 * self.omega1), abs(2 * self.omega3))


def build_lattice(omega1: complex, omega3: complex) -> Lattice:
    """Validate half-periods and derive tau, q, omega2.

    Raises ZeroPeriod, InvalidPeriodRatio, or ConvergencePolicyError when the
    nome magnitude exceeds Q_MAX (theta series degrade; no modular reduction
    is attempted).
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
    return Lattice(omega1=omega1, omega3=omega3, omega2=-(omega1 + omega3), tau=tau, q=q)


def cell_coords(lat: Lattice, u: complex) -> tuple[float, float]:
    """Real coordinates (alpha, beta) with u = 2*alpha*omega1 + 2*beta*omega3."""
    w1, w3 = 2 * lat.omega1, 2 * lat.omega3
    det = w1.real * w3.imag - w1.imag * w3.real
    alpha = (u.real * w3.imag - u.imag * w3.real) / det
    beta = (w1.real * u.imag - w1.imag * u.real) / det
    return alpha, beta


# A located point: u = 2*alpha*omega1 + 2*beta*omega3 = u_red + 2*n*omega1 + 2*m*omega3.
Located = namedtuple("Located", "u alpha beta u_red n m")


def locate(lat: Lattice, u: complex) -> Located:
    """The one placement of u behind every evaluator: the cell coordinates the
    guard and the zone tests read, and from their rounding the reduction the
    theta pass reads (u_red with cell coordinates in [-1/2, 1/2])."""
    alpha, beta = cell_coords(lat, u)
    n, m = round(alpha), round(beta)
    return Located(u, alpha, beta, u - 2 * n * lat.omega1 - 2 * m * lat.omega3, n, m)


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


def nearest(lat: Lattice, p: Located, k: int) -> tuple[float, complex]:
    """`nearest_translate` to the coset omega_k + lattice (k = 0 the lattice),
    from the located point's own cell coordinates."""
    a, b = _HALF_CELL[k]
    offset = (0j, lat.omega1, lat.omega2, lat.omega3)[k]
    return _closest(lat, p.u, offset, p.alpha - a, p.beta - b)


# The AGM stops once |c_n| <= AGM_TOL * |a_n|.
AGM_TOL = 1e-15


@dataclass(frozen=True)
class JacobiParams:
    """Moduli, complete integrals, and the lattice they came from."""

    k: complex
    kprime: complex
    big_k: complex
    big_e: complex
    scale: complex
    lattice: Lattice
    cfg: SeriesConfig


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


@dataclass(frozen=True)
class LatticeConstants:
    """Per-lattice state: half-period values, elliptic invariants, squared
    moduli, the theta nullwerte every evaluation divides by, and the Jacobi
    parameters.

    `nullwerte[idx]` is theta_idx(0) for idx 0..3 (exactly 0 for the odd
    index), `nullwert_prime` is theta_0'(0), and `jacobi` holds the moduli,
    the complete integrals and the scale of the Jacobi bridge.
    """

    e1: complex
    e2: complex
    e3: complex
    eta1: complex
    eta2: complex
    eta3: complex
    g2: complex
    g3: complex
    disc: complex
    ksq: complex
    kpsq: complex
    nullwerte: tuple[complex, complex, complex, complex]
    nullwert_prime: complex
    jacobi: JacobiParams

    def e(self, lam: int) -> complex:
        return (self.e1, self.e2, self.e3)[lam - 1]

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
    enters: disc = 16 (d12 d13 d23)^2, k^2 = d23/d13, k'^2 = d12/d13.  Each
    individual e comes from 3*e_lam = (e_lam - e_mu) + (e_lam - e_nu); eta1
    from the third-derivative nullwert, eta3 from the Legendre relation
    eta1*omega3 - eta3*omega1 = i*pi/2, and eta2 = -eta1 - eta3.
    """
    t1, t2, t3, tp, tppp = theta_nullwerte(lat.tau, cfg)
    nw = (0j, t1, t2, t3)
    w1 = lat.omega1
    c = (PI / (2 * w1)) ** 2
    d12 = c * nw[HALF_PERIOD_THETA[3]] ** 4
    d13 = c * nw[HALF_PERIOD_THETA[2]] ** 4
    d23 = c * nw[HALF_PERIOD_THETA[1]] ** 4
    e1 = (d12 + d13) / 3
    e2 = (-d12 + d23) / 3
    e3 = (-d13 - d23) / 3
    eta1 = -tppp / (12 * w1 * tp)
    eta3 = (eta1 * lat.omega3 - 1j * PI / 2) / w1
    eta2 = -eta1 - eta3
    ksq = d23 / d13
    kpsq = d12 / d13
    big_k, big_e = agm_complete_integrals(ksq, kpsq)
    jacobi = JacobiParams(
        k=cmath.sqrt(ksq), kprime=cmath.sqrt(kpsq), big_k=big_k, big_e=big_e,
        scale=cmath.sqrt(e1 - e3), lattice=lat, cfg=cfg,
    )
    return LatticeConstants(
        e1=e1, e2=e2, e3=e3, eta1=eta1, eta2=eta2, eta3=eta3,
        g2=-4 * (e1 * e2 + e2 * e3 + e3 * e1), g3=4 * e1 * e2 * e3,
        disc=16 * (d12 * d13 * d23) ** 2, ksq=ksq, kpsq=kpsq,
        nullwerte=nw, nullwert_prime=tp, jacobi=jacobi,
    )


constants.cache_info = _constants.cache_info


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def constants_to_json(lat: Lattice, lc: LatticeConstants) -> dict:
    """JSON-ready dict with complex numbers as [re, im] pairs."""
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


# The lattice-sum oracles below import numpy when called, so that the theta
# routes start without it.
@lru_cache(maxsize=64)
def sorted_lattice_points(
    two_w1: complex, two_w3: complex, radius: int, offset: complex = 0j
) -> "np.ndarray":
    """Points of offset + lattice inside the disc |p| <= radius * min period.

    The cutoff is symmetric in the plane metric, which is what makes the
    slowly convergent lattice tails cancel angularly; a square index-box
    cutoff leaves an O(radius^-2) bias that symmetric truncation removes.
    Points come back sorted by increasing magnitude (exact zero dropped),
    so partial accumulation walks outward shell by shell.
    """
    import numpy as np

    if radius < 1:
        raise ValueError("radius must be >= 1")
    cut = radius * min(abs(two_w1), abs(two_w3))
    area = abs((two_w1.conjugate() * two_w3).imag)
    n_span = int(math.ceil((cut + abs(offset)) * abs(two_w3) / area)) + 1
    m_span = int(math.ceil((cut + abs(offset)) * abs(two_w1) / area)) + 1
    n = np.arange(-n_span, n_span + 1)
    m = np.arange(-m_span, m_span + 1)
    nn, mm = np.meshgrid(n, m, indexing="ij")
    pts = (offset + nn * two_w1 + mm * two_w3).ravel()
    mag = np.abs(pts)
    keep = (mag > 1e-12 * cut / radius) & (mag <= cut)
    pts = pts[keep]
    return pts[np.argsort(np.abs(pts), kind="stable")]


def eisenstein_invariants(lat: Lattice, shell_radius: int) -> tuple[complex, complex]:
    """(g2, g3) by direct truncated lattice sums 60*sum(1/Omega^4), 140*sum(1/Omega^6).

    Truncated at |Omega| <= shell_radius * min period and accumulated
    outward; serves as an independent oracle for `constants`, not as a
    production path.
    """
    import numpy as np

    pts = sorted_lattice_points(2 * lat.omega1, 2 * lat.omega3, shell_radius)
    inv2 = 1.0 / (pts * pts)
    inv4 = inv2 * inv2
    g2 = 60.0 * complex(np.sum(inv4))
    g3 = 140.0 * complex(np.sum(inv4 * inv2))
    return g2, g3
