"""Sigma/zeta/wp against lattice-sum and product oracles, plus pole handling."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weierzeta import (
    Status,
    build_lattice,
    constants,
    delta,
    delta2,
    delta2_prime,
    delta_prime,
    sigma,
    sigma_aux,
    sigma_product,
    wp,
    wp_lattice_sum,
    wp_prime,
    zeta_aux,
    zeta_lattice_sum,
    zeta_w,
)

from conftest import REFERENCE_TAUS, guarded_points, make_lattice


def test_sigma_unit_leading_coefficient():
    lat = make_lattice("square")
    for u in (1e-7, 1e-7j, 1e-7 * (1 + 1j)):
        assert abs(sigma(lat, u) / u - 1) < 1e-12


def test_sigma_vanishes_on_lattice():
    lat = make_lattice("square")
    assert sigma(lat, 2 * lat.omega1) == 0
    assert sigma(lat, -4 * lat.omega1 + 6 * lat.omega3) == 0


def test_sigma_matches_truncated_product():
    lat = make_lattice("square")
    u = 0.3 + 0.1j
    ref = sigma_product(lat, u, radius=60)
    assert abs(sigma(lat, u) - ref) <= 1e-6 * abs(ref)


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_sigma_aux_normalisation_and_parity(lam):
    lat = make_lattice("generic")
    assert sigma_aux(lat, lam, 0.0) == 1
    u = 0.23 + 0.11j
    assert abs(sigma_aux(lat, lam, -u) - sigma_aux(lat, lam, u)) < 1e-13


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_sigma_aux_shift_route_agreement(lam):
    # definition route e^(-eta*u) sigma(w+u)/sigma(w) against the theta route
    lat = make_lattice("generic")
    lc = constants(lat)
    w, eta = lat.half_period(lam), lc.eta(lam)
    rng = random.Random(5)
    for u in guarded_points(lat, rng, 10, guard=0.01, offsets=(0j,)):
        lhs = sigma_aux(lat, lam, u)
        rhs = cmath.exp(-eta * u) * sigma(lat, w + u) / sigma(lat, w)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_zeta_odd_and_quasi_periodic():
    lat = make_lattice("generic")
    lc = constants(lat)
    u = 0.19 + 0.07j
    assert abs(zeta_w(lat, u).value + zeta_w(lat, -u).value) < 1e-12
    shifted = zeta_w(lat, u + 2 * lat.omega1).value
    assert abs(shifted - zeta_w(lat, u).value - 2 * lc.eta1) < 1e-12


def test_zeta_matches_lattice_sum():
    lat = make_lattice("square")
    ref = zeta_lattice_sum(lat, 0.25, radius=200)
    assert abs(zeta_w(lat, 0.25).value - ref) <= 1e-6 * abs(ref)


def test_wp_matches_lattice_sum():
    lat = make_lattice("generic")
    u = 0.2 + 0.15j
    ref = wp_lattice_sum(lat, u, radius=200)
    assert abs(wp(lat, u).value - ref) <= 1e-6 * abs(ref)


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_wp_half_period_values(name):
    lat = make_lattice(name)
    lc = constants(lat)
    scale = max(abs(lc.e1), abs(lc.e3))
    for lam in (1, 2, 3):
        got = wp(lat, lat.half_period(lam)).value
        assert abs(got - lc.e(lam)) <= 1e-11 * scale


def test_wp_differential_equation_at_random_points():
    lat = make_lattice("generic")
    lc = constants(lat)
    rng = random.Random(17)
    for u in guarded_points(lat, rng, 100, guard=0.02, offsets=(0j,)):
        p = wp(lat, u).value
        pp = wp_prime(lat, u).value
        resid = pp**2 - (4 * p**3 - lc.g2 * p - lc.g3)
        assert abs(resid) <= 1e-9 * max(abs(pp) ** 2, abs(p) ** 3, 1.0)


def test_wp_lambda_independence():
    lat = make_lattice("generic")
    lc = constants(lat)
    rng = random.Random(23)
    for u in guarded_points(lat, rng, 20, guard=0.02, offsets=(0j,)):
        s0 = sigma(lat, u)
        vals = [lc.e(lam) + (sigma_aux(lat, lam, u) / s0) ** 2 for lam in (1, 2, 3)]
        m = max(abs(v) for v in vals)
        assert abs(vals[0] - vals[1]) <= 1e-10 * m
        assert abs(vals[0] - vals[2]) <= 1e-10 * m


def test_wp_ellipticity():
    lat = make_lattice("generic")
    u = 0.17 + 0.21j
    base = wp(lat, u).value
    assert abs(wp(lat, u + 2 * lat.omega1).value - base) < 1e-10 * abs(base)
    assert abs(wp(lat, u + 2 * lat.omega3).value - base) < 1e-10 * abs(base)


def test_zeta_derivative_is_minus_wp():
    lat = make_lattice("generic")
    rng = random.Random(31)
    h = 1e-5
    for u in guarded_points(lat, rng, 10, guard=0.15, offsets=(0j,)):
        fd = (zeta_w(lat, u + h).value - zeta_w(lat, u - h).value) / (2 * h)
        assert abs(fd + wp(lat, u).value) < 1e-6


def test_frobenius_stickelberger():
    lat = make_lattice("generic")
    rng = random.Random(37)
    pts = guarded_points(lat, rng, 20, guard=0.03, offsets=(0j,))
    for z, w in zip(pts[:10], pts[10:]):
        lhs = wp(lat, z).value - wp(lat, w).value
        rhs = sigma(lat, z + w) * sigma(lat, w - z) / (sigma(lat, z) ** 2 * sigma(lat, w) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


BAD_INDEX_CALLS = {
    "sigma_aux": lambda lat, lam, u: sigma_aux(lat, lam, u),
    "zeta_aux": lambda lat, lam, u: zeta_aux(lat, lam, u),
    "delta": lambda lat, lam, u: delta(lat, lam, u),
    "delta_prime": lambda lat, lam, u: delta_prime(lat, lam, u),
    "delta2": lambda lat, lam, u: delta2(lat, lam, 2, u),
    "delta2_prime": lambda lat, lam, u: delta2_prime(lat, 1, lam, u),
}


@pytest.mark.parametrize("lam", [0, -1, 4])
@pytest.mark.parametrize("name", sorted(BAD_INDEX_CALLS))
def test_bad_half_period_index_is_value_error(name, lam):
    # Cosets are looked up by index, where -1 would silently select omega_3;
    # sigma_aux raised an untyped KeyError.
    with pytest.raises(ValueError):
        BAD_INDEX_CALLS[name](make_lattice("generic"), lam, 0.21 + 0.13j)


def test_pole_statuses():
    lat = make_lattice("square")
    at = wp(lat, 0.0)
    assert at.status is Status.AT_POLE and not at.is_finite
    at2 = zeta_w(lat, 2 * lat.omega1)
    assert at2.status is Status.AT_POLE
    assert at2.pole == 2 * lat.omega1
    near = wp_prime(lat, 1e-10)
    assert near.status is Status.NEAR_POLE
    assert near.pole == 0
    ok = wp(lat, 0.3)
    assert ok.status is Status.FINITE and ok.is_finite


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.05, 0.95), b=st.floats(0.05, 0.95))
def test_property_wp_even_zeta_odd(a, b):
    lat = build_lattice(0.5, 0.5 * (0.3 + 1.1j))
    u = 2 * a * lat.omega1 + 2 * b * lat.omega3
    res = wp(lat, u)
    if not res.is_finite:
        return
    mirrored = wp(lat, -u)
    assert abs(res.value - mirrored.value) <= 1e-9 * max(abs(res.value), 1.0)
    z1, z2 = zeta_w(lat, u), zeta_w(lat, -u)
    if z1.is_finite and z2.is_finite:
        assert abs(z1.value + z2.value) <= 1e-9 * max(abs(z1.value), 1.0)
