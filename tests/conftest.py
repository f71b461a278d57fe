"""Shared fixtures: reference lattices, guarded sampling, and the mpmath
reference values."""

from __future__ import annotations

import fnmatch
import importlib.util
import random
from pathlib import Path

import pytest

from weierzeta import build_lattice, default_suite
from weierzeta.lattice import nearest_translate
from weierzeta.theta import DEFAULT_CONFIG
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
    given cosets (all four half-period classes by default)."""
    if offsets is None:
        offsets = (0j, lat.omega1, lat.omega2, lat.omega3)
    pts = []
    while len(pts) < n:
        a, b = rng.random(), rng.random()
        u = 2 * a * lat.omega1 + 2 * b * lat.omega3
        if all(nearest_translate(lat, u, off)[0] >= guard * lat.min_period for off in offsets):
            pts.append(u)
    return pts


def suite_residuals(lat, pattern: str, pts) -> list[float]:
    """Residuals at one sample of the default-suite identities whose names
    match the glob pattern, by the function run_suite applies per sample."""
    ctx = _Ctx(lat, DEFAULT_CONFIG)
    specs = [s for s in default_suite() if fnmatch.fnmatch(s.name, pattern)]
    assert specs, pattern
    return [_residual(ctx, _side(s, s.lhs), _side(s, s.rhs), pts) for s in specs]
