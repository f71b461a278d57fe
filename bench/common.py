"""Seeded inputs, lattice geometry and statistics shared by the benchmark.

Nothing here imports weierzeta: inputs are generated and pole loci are
located independently of the code under test.
"""

from __future__ import annotations

import cmath
import math
import os
import random
import statistics
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# The five reference lattices of the test suite (tests/conftest.py), with
# omega1 = 0.5 and omega3 = 0.5 * tau.
REFERENCE_TAUS = {
    "square": 1j,
    "rect": 2j,
    "rhombic": 0.5 + 0.8660254037844386j,
    "generic": 0.3 + 1.1j,
    "tall": 0.1 + 3j,
}

# Library conventions the checks rely on: the pole radius of EvalResult
# statuses and the q_max of build_lattice.
NEAR_POLE_FACTOR = 1e-8
Q_MAX = 0.9

# Sample points keep this share of the shortest lattice vector away from
# every half-period coset, so no guarded point is at or near a pole.
GUARD = 0.05

# table_grid: functions tabulated on the generic lattice, with their pole
# cosets as half-period indices (0 is the lattice itself).
TABLE_FUNCTIONS = (
    ("wp", None, (0,)),
    ("zeta2", "qseries", (2,)),
    ("delta12", None, (1, 2)),
    ("sn", None, (3,)),
)
TABLE_STEP = 0.0125
TABLE_COUNTS = (81, 89)  # one period in Re u (1.0), one in Im u (1.1)

# lattice_sweep: a pool larger than the library's 128-entry lru_caches.
SWEEP_POOL = 192
SWEEP_OPS = (
    "build_lattice", "constants", "wp", "zeta_aux", "delta2",
    "jacobi_params", "sn_cn_dn", "jacobi_E_Z_Pi",
)
SWEEP_POINTS = 4
POOL_SEED = 1  # the pool is the same for every run seed
SWEEP_CHECK_SHARE = 0.02
# The ROADMAP reproducers: q-series divergence at |q| = 0.88, the
# discriminant lost to cancellation on tall lattices, and sigma underflow
# (ZeroDivisionError in wp_prime) on a large skewed cell.
SWEEP_REPRODUCERS = (
    (0.5 + 0j, 0.5 * (0.45 + 0.04j)),
    (0.5 + 0j, 2.5j),
    (0.5 + 0j, 3j),
    (0.5 + 0j, 4j),
    (225 * cmath.exp(0.8442354444173306j), (2.0117 + 0.0387j) * 225 * cmath.exp(0.8442354444173306j)),
)


def reference_lattice(name: str) -> tuple[complex, complex]:
    return 0.5 + 0j, 0.5 * REFERENCE_TAUS[name]


def cplx_arg(z: complex) -> str:
    """A complex number as the CLI's 're,im' literal, exact in binary."""
    return f"{z.real!r},{z.imag!r}"


# ---------------------------------------------------------------------------
# Lattice geometry, computed in a Gauss-reduced basis so that it holds for
# unreduced and skewed user bases alike.
# ---------------------------------------------------------------------------


def reduced_basis(w1: complex, w3: complex) -> tuple[complex, complex]:
    """Gauss-reduced basis (shortest vector first) of the lattice 2w1 Z + 2w3 Z."""
    b1, b2 = 2 * w1, 2 * w3
    if abs(b1) > abs(b2):
        b1, b2 = b2, b1
    while True:
        mu = round((b2 * b1.conjugate()).real / abs(b1) ** 2)
        b2 -= mu * b1
        if abs(b2) >= abs(b1):
            return b1, b2
        b1, b2 = b2, b1


def coset_distance(basis: tuple[complex, complex], u: complex, offset: complex) -> float:
    """Distance from u to offset + lattice, given a reduced basis."""
    b1, b2 = basis
    v = u - offset
    det = b1.real * b2.imag - b1.imag * b2.real
    x = (v.real * b2.imag - v.imag * b2.real) / det
    y = (b1.real * v.imag - b1.imag * v.real) / det
    n0, m0 = round(x), round(y)
    return min(
        abs(v - (n0 + dn) * b1 - (m0 + dm) * b2) for dn in (-1, 0, 1) for dm in (-1, 0, 1)
    )


def half_periods(w1: complex, w3: complex) -> tuple[complex, complex, complex, complex]:
    """Offsets of the four half-period cosets: 0, omega1, omega2, omega3."""
    return 0j, w1, -(w1 + w3), w3


def guarded_point(rng: random.Random, w1: complex, w3: complex, basis, quadrant: int = -1) -> complex:
    """A point of the user's period cell, GUARD * shortest period from every
    coset; with quadrant 0..3, from that quarter of the cell only."""
    guard = GUARD * abs(basis[0])
    offsets = half_periods(w1, w3)
    lo_a, lo_b, span = (0.0, 0.0, 1.0) if quadrant < 0 else (quadrant % 2 / 2, quadrant // 2 / 2, 0.5)
    while True:
        u = 2 * (lo_a + span * rng.random()) * w1 + 2 * (lo_b + span * rng.random()) * w3
        if all(coset_distance(basis, u, off) >= guard for off in offsets):
            return u


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def verify_order(seed: int) -> list[str]:
    """The five reference lattices in a seeded order."""
    names = list(REFERENCE_TAUS)
    random.Random(f"verify:{seed}").shuffle(names)
    return names


def table_grid(seed: int) -> tuple[str, str]:
    """CLI axis specs: one period in each direction from a seeded origin on
    the TABLE_STEP grid, so every pole coset of the generic lattice lies on
    the grid."""
    rng = random.Random(f"table:{seed}")
    x0 = TABLE_STEP * rng.randint(-40, 40)
    y0 = TABLE_STEP * rng.randint(-44, 44)
    nx, ny = TABLE_COUNTS
    return (
        f"{x0!r}:{x0 + TABLE_STEP * (nx - 1)!r}:{nx}",
        f"{y0!r}:{y0 + TABLE_STEP * (ny - 1)!r}:{ny}",
    )


def axis_points(spec: str) -> list[float]:
    """The axis values the CLI generates from 'start:stop:count'."""
    start, stop, count = spec.split(":")
    start, stop, count = float(start), float(stop), int(count)
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def sweep_pool() -> list[tuple[complex, complex]]:
    """Unreduced lattice bases (omega1, omega3): the reproducers, then seeded
    ones with Re tau in [-4, 4], Im tau log-uniform from past q_max up to
    8.5, |omega1| log-uniform in [1e-3, 1e3] and any orientation.

    Each property is drawn by stratified sampling (one value per stratum, in
    a seeded order), so the pool has an even mix of thin, tall, tiny and
    huge lattices.
    """
    rng = random.Random(f"pool:{POOL_SEED}")
    n = SWEEP_POOL - len(SWEEP_REPRODUCERS)

    def strata(lo: float, hi: float) -> list[float]:
        order = list(range(n))
        rng.shuffle(order)
        return [lo + (hi - lo) * (k + rng.random()) / n for k in order]

    im_lo = math.log(0.025)  # |q| = 0.924 > Q_MAX
    log_im = strata(im_lo, math.log(8.5))
    re = strata(-4.0, 4.0)
    log_r = strata(-3.0, 3.0)
    pool = list(SWEEP_REPRODUCERS)
    for k in range(n):
        tau = complex(re[k], math.exp(log_im[k]))
        w1 = 10 ** log_r[k] * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        pool.append((w1, tau * w1))
    return pool


class SweepInputs:
    """Seeded visit i of lattice_sweep: which pool lattice and what arguments.

    The pool is fixed (POOL_SEED), like the verify_suite lattices, so that
    the mix of cheap and costly lattices is the same for every run seed;
    the run seed orders the visits and draws their arguments.
    Visits go through the pool in cycles, each cycle a seeded permutation, so
    every lattice is revisited once per cycle while the LRU cache holds only
    two thirds of the pool.  Each visit draws its arguments from its own
    generator, so visit i is the same in every process and for any run
    length.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = sweep_pool()
        self._bases = {}
        self._cycles = {}

    def basis(self, j: int):
        if j not in self._bases:
            self._bases[j] = reduced_basis(*self.pool[j])
        return self._bases[j]

    def lattice_at(self, i: int) -> int:
        cycle, pos = divmod(i, len(self.pool))
        if cycle not in self._cycles:
            order = list(range(len(self.pool)))
            random.Random(f"cycle:{self.seed}:{cycle}").shuffle(order)
            self._cycles = {cycle: order}
        return self._cycles[cycle][pos]

    def visit(self, i: int) -> dict:
        j = self.lattice_at(i)
        w1, w3 = self.pool[j]
        # Each lattice rotates through SWEEP_POINTS argument sets, one per
        # quarter of its cell, with the indices rotating too; every
        # SWEEP_POINTS cycles repeat the same work.
        slot = (i // len(self.pool)) % SWEEP_POINTS
        rng = random.Random(f"visit:{self.seed}:{j}:{slot}")
        u = guarded_point(rng, w1, w3, self.basis(j), slot)
        a = guarded_point(rng, w1, w3, self.basis(j), 3 - slot)
        return {"i": i, "lattice": j, "w1": w1, "w3": w3, "lam": 1 + (j + slot) % 3,
                "pair": _PAIRS[(j + slot) % 6], "u": u, "a": a,
                "checked": j < len(SWEEP_REPRODUCERS) or rng.random() < SWEEP_CHECK_SHARE}


_PAIRS = ((1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def percentile(values, p: int) -> float:
    """The p-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# Time of calibrate() on the reference core.  Timings are reported at this
# core speed: wall * CAL_REFERENCE_S / (mean of the calibrations run on the
# same core just before and just after), which removes the drift of a
# shared host's core speed.
CAL_REFERENCE_S = 0.005


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of five): the current
    speed of the core this process runs on."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return median(times)
