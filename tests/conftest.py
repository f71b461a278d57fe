"""Shared fixtures: reference lattices, guarded sampling, the mpmath
reference values, and the row checks of Theorem 2.11 and Corollary 2.12."""

from __future__ import annotations

import cmath
import fnmatch
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from weierzeta import (
    DeltaRoute,
    build_lattice,
    constants,
    default_suite,
    delta,
    delta2,
    jacobi_params,
    sn_cn_dn,
)
from weierzeta.lattice import Lattice, locate, nearest
from weierzeta.theta import DEFAULT_CONFIG, SeriesConfig
from weierzeta.verify import _Ctx, _residual, _side

REFERENCE_TAUS = {
    "square": 1j,
    "rect": 2j,
    "rhombic": 0.5 + 0.8660254037844386j,
    "generic": 0.3 + 1.1j,
    "tall": 0.1 + 3j,
}

RECTANGULAR = ("square", "rect")


def make_lattice(name: str):
    tau = REFERENCE_TAUS[name]
    return build_lattice(0.5, 0.5 * tau)


@pytest.fixture(scope="session")
def lattices():
    return {name: make_lattice(name) for name in REFERENCE_TAUS}


@pytest.fixture
def generic_lat():
    return make_lattice("generic")


@pytest.fixture
def square_lat():
    return make_lattice("square")


@pytest.fixture(scope="session")
def reference():
    """bench/reference.py, the benchmark's 30-digit mpmath reference (one
    copy for both); skips the test when mpmath is missing."""
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("weierzeta_bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def guarded_points(lat, rng: random.Random, n: int, guard: float = 0.05, offsets=None):
    """n points in the fundamental cell at least guard*min_period from the
    cosets of the given offsets (all four half-period classes by default),
    by the coset distances of the located point (`lattice.nearest`)."""
    cosets = range(4) if offsets is None else [lat.offsets.index(off) for off in offsets]
    pts = []
    while len(pts) < n:
        a, b = rng.random(), rng.random()
        u = 2 * a * lat.omega1 + 2 * b * lat.omega3
        p = locate(lat, u, DEFAULT_CONFIG)
        if all(nearest(p, k)[0] >= guard * lat.min_period for k in cosets):
            pts.append(u)
    return pts


def rebind(monkeypatch, fn, replacement) -> None:
    """Make every weierzeta module that binds fn bind replacement instead."""
    for name, mod in list(sys.modules.items()):
        if name == "weierzeta" or name.startswith("weierzeta."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def count_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call of fn made through any weierzeta
    module binding it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    rebind(monkeypatch, fn, counted)
    return calls


def suite_residuals(lat, pattern: str, pts) -> list[float]:
    """Residuals at one sample of the default-suite identities whose names
    match the glob pattern, by the function run_suite applies per sample."""
    ctx = _Ctx(lat, DEFAULT_CONFIG)
    specs = [s for s in default_suite() if fnmatch.fnmatch(s.name, pattern)]
    assert specs, pattern
    return [_residual(ctx, _side(ctx, s, s.lhs), _side(ctx, s, s.rhs), pts) for s in specs]


def check_thm211(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> list[float]:
    """Residuals of the six transformation rows linking delta products and
    quotients to ns, ds, cs, sn(K - x), dn, nc.

    The left sides combine wp-route delta values under principal square
    roots, so the row residuals are meaningful where the principal branch
    matches the sigma-quotient convention: rectangular lattices with real
    arguments.  The suite's thm211_squared_* identities check the
    square-root-free rows on arbitrary lattices.
    """
    p = jacobi_params(lat, cfg)
    x = p.scale * u
    s, c, d = sn_cn_dn(p, x)
    dv = {lam: delta(lat, lam, u, DeltaRoute.WP_QUOTIENT, cfg).value for lam in (1, 2, 3)}
    sK, _, _ = sn_cn_dn(p, p.big_k - x)
    rows = [
        (cmath.sqrt(dv[1] * dv[2]), p.scale / s),
        (cmath.sqrt(dv[1] * dv[3]), p.scale * d / s),
        (cmath.sqrt(dv[2] * dv[3]), p.scale * c / s),
        (cmath.sqrt(dv[2] / dv[1]), sK),
        (cmath.sqrt(dv[3] / dv[2]), d),
        (cmath.sqrt(dv[1] / dv[3]), 1.0 / c),
    ]
    return [abs(lhs - rhs) for lhs, rhs in rows]


def check_cor212(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> list[float]:
    """Residuals of the three delta-to-Jacobi rows.

    Each entry is the max of |delta_lam - (e_mu - e_nu)/delta2_{mu,nu}| and
    |delta_lam - jacobi member|.  The Jacobi members carry a minus sign
    relative to their naive quotient form: delta_lam behaves as -1/u at the
    origin while dn/(sn*cn), cn/(dn*sn), cn*dn/sn all behave as +1/x, so the
    sigma-quotient branch convention forces the sign.
    """
    p = jacobi_params(lat, cfg)
    lc = constants(lat, cfg)
    x = p.scale * u
    s, c, d = sn_cn_dn(p, x)
    dv = {lam: delta(lat, lam, u, DeltaRoute.ZETA_DIFF, cfg).value for lam in (1, 2, 3)}
    d2 = {
        pair: delta2(lat, pair[0], pair[1], u, DeltaRoute.WP_QUOTIENT, cfg).value
        for pair in ((2, 3), (1, 3), (1, 2))
    }
    rows = [
        (dv[1], (lc.e2 - lc.e3) / d2[(2, 3)], -p.scale * d / (s * c)),
        (dv[2], (lc.e1 - lc.e3) / d2[(1, 3)], -p.scale * c / (d * s)),
        (dv[3], (lc.e1 - lc.e2) / d2[(1, 2)], -p.scale * c * d / s),
    ]
    return [max(abs(a - b), abs(a - c_)) for a, b, c_ in rows]
