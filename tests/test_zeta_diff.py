"""Zeta differences: route agreement, derivatives, zeros, constant recovery."""

import io
import random
from contextlib import redirect_stdout

import pytest

from weierzeta import (
    DeltaRoute,
    Status,
    build_lattice,
    constants,
    constants_from_deltas,
    delta,
    delta2,
    delta2_prime,
    delta_prime,
    wp,
    wp_prime,
)
from weierzeta.cli import main
from weierzeta.errors import IdenticalIndices, PoleProximityError
from weierzeta.lattice import complement
from weierzeta.theta import theta_dlog
from weierzeta.lattice import reduce_to_cell

from conftest import REFERENCE_TAUS, guarded_points, make_lattice


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_zeros_at_other_half_periods(lam):
    lat = make_lattice("generic")
    mu, nu = complement(lam)
    for idx in (mu, nu):
        res = delta(lat, lam, lat.half_period(idx))
        assert res.status is Status.FINITE
        assert abs(res.value) < 1e-12


def test_oddness():
    lat = make_lattice("generic")
    u = 0.17 + 0.09j
    for lam in (1, 2, 3):
        a = delta(lat, lam, u).value
        b = delta(lat, lam, -u).value
        assert abs(a + b) <= 1e-11 * max(abs(a), 1.0)


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_all_four_routes_agree(name):
    lat = make_lattice(name)
    rng = random.Random(7)
    for u in guarded_points(lat, rng, 15, guard=0.03):
        for lam in (1, 2, 3):
            vals = [delta(lat, lam, u, r).value for r in DeltaRoute]
            scale = max(abs(vals[0]), 1e-30)
            assert max(abs(a - b) for a in vals for b in vals) <= 1e-10 * scale


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_delta2_routes_agree(name):
    lat = make_lattice(name)
    rng = random.Random(11)
    for u in guarded_points(lat, rng, 15, guard=0.03):
        for lam, mu in ((1, 2), (2, 3), (3, 1)):
            vals = [delta2(lat, lam, mu, u, r).value for r in DeltaRoute]
            # definitional difference of the two first-kind values
            vals.append(delta(lat, lam, u).value - delta(lat, mu, u).value)
            scale = max(abs(vals[0]), 1e-30)
            assert max(abs(a - b) for a in vals for b in vals) <= 1e-10 * scale


def test_delta2_zeros_and_antisymmetry():
    lat = make_lattice("generic")
    assert delta2(lat, 1, 2, 0.0).value == 0
    assert abs(delta2(lat, 1, 2, lat.omega3).value) < 1e-12
    u = 0.21 + 0.12j
    assert abs(delta2(lat, 1, 2, u).value + delta2(lat, 2, 1, u).value) < 1e-12
    with pytest.raises(IdenticalIndices):
        delta2(lat, 2, 2, u)


def test_delta2_pole_status():
    lat = make_lattice("generic")
    res = delta2(lat, 1, 2, lat.omega1)
    assert res.status is Status.AT_POLE


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_delta_prime_special_values(lam):
    lat = make_lattice("generic")
    lc = constants(lat)
    mu, nu = complement(lam)
    scale = max(abs(lc.e1), abs(lc.e3))
    got_mu = delta_prime(lat, lam, lat.half_period(mu)).value
    got_nu = delta_prime(lat, lam, lat.half_period(nu)).value
    assert abs(got_mu - (lc.e(mu) - lc.e(nu))) <= 1e-11 * scale
    assert abs(got_nu - (lc.e(nu) - lc.e(mu))) <= 1e-11 * scale


def test_delta_prime_matches_finite_differences():
    lat = make_lattice("generic")
    rng = random.Random(13)
    h = 1e-5
    for u in guarded_points(lat, rng, 10, guard=0.15):
        for lam in (1, 2, 3):
            fd = (delta(lat, lam, u + h).value - delta(lat, lam, u - h).value) / (2 * h)
            assert abs(fd - delta_prime(lat, lam, u).value) < 1e-6


def test_delta2_prime_matches_finite_differences_and_antisymmetry():
    lat = make_lattice("generic")
    rng = random.Random(17)
    h = 1e-5
    for u in guarded_points(lat, rng, 10, guard=0.15):
        fd = (delta2(lat, 1, 2, u + h).value - delta2(lat, 1, 2, u - h).value) / (2 * h)
        d2p = delta2_prime(lat, 1, 2, u).value
        assert abs(fd - d2p) < 1e-6
        assert abs(d2p + delta2_prime(lat, 2, 1, u).value) < 1e-10 * max(abs(d2p), 1.0)


def test_delta2_prime_shift_form():
    lat = make_lattice("generic")
    rng = random.Random(19)
    for u in guarded_points(lat, rng, 10, guard=0.03):
        for lam, mu in ((1, 2), (2, 3), (3, 1)):
            lhs = delta2_prime(lat, lam, mu, u).value
            rhs = (
                wp(lat, u + lat.half_period(mu)).value
                - wp(lat, u + lat.half_period(lam)).value
            )
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


NEAR_POLE_STEPS = (1e-6, 1e-5, 1e-4)


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_delta_prime_near_poles_matches_shift_form(name):
    # Theorem 2.7 off the poles 0 and omega_lam by 1.2e-6..1.2e-4: the
    # closed form must not lose what wp - e_lam loses to cancellation.
    lat = make_lattice(name)
    for lam in (1, 2, 3):
        for base in (0j, lat.half_period(lam)):
            for eps in NEAR_POLE_STEPS:
                u = base + eps * (1 + 0.7j)
                got = delta_prime(lat, lam, u)
                shift = wp(lat, u).value - wp(lat, u + lat.half_period(lam)).value
                assert got.status is Status.FINITE
                assert abs(got.value - shift) <= 1e-8 * abs(shift), (lam, base, eps)


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_delta_wp_route_near_omega_lam_matches_zetadiff(name):
    # wp - e_lam cancels next to the pole omega_lam; the wp route must not
    # lose the value to it.
    lat = make_lattice(name)
    for lam in (1, 2, 3):
        for eps in NEAR_POLE_STEPS:
            u = lat.half_period(lam) + eps * (1 + 0.7j) * lat.min_period
            got = delta(lat, lam, u, DeltaRoute.WP_QUOTIENT)
            ref = delta(lat, lam, u, DeltaRoute.ZETA_DIFF).value
            assert got.status is Status.FINITE
            assert abs(got.value - ref) <= 1e-8 * abs(ref), (lam, eps)


@pytest.mark.parametrize("scale", [1e-80, 1.0, 1e80])
def test_delta_wp_route_next_to_omega1_at_any_scale(scale):
    # The wp form's zone around omega_lam keeps its size in periods; where
    # it read 0.0 (omega1 = 1e-80) the wp form ran 1e-6 periods from omega1
    # and was 3.7e-6 off the sigma route.
    lat = build_lattice(scale, scale * (0.3 + 1.1j))
    u = lat.omega1 + 1e-6 * (1 + 0.7j) * lat.min_period
    got = delta(lat, 1, u, DeltaRoute.WP_QUOTIENT).value
    ref = delta(lat, 1, u, DeltaRoute.SIGMA_QUOTIENT).value
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_delta2_prime_near_half_periods_matches_shift_form(name):
    # Theorem 2.10 near its poles omega_lam, omega_mu and its zeros 0, omega_nu.
    lat = make_lattice(name)
    for lam, mu in ((1, 2), (2, 3), (3, 1)):
        for base in (0j, lat.omega1, lat.omega2, lat.omega3):
            for eps in NEAR_POLE_STEPS:
                u = base + eps * (1 + 0.7j)
                got = delta2_prime(lat, lam, mu, u)
                shift = (
                    wp(lat, u + lat.half_period(mu)).value
                    - wp(lat, u + lat.half_period(lam)).value
                )
                assert got.status is Status.FINITE
                assert abs(got.value - shift) <= 1e-8 * abs(shift), (lam, mu, base, eps)


def test_theta_dlog_difference_reproduces_delta():
    # cross-module property: the dlog-difference form out of raw theta evaluations
    lat = make_lattice("generic")
    rng = random.Random(23)
    for u in guarded_points(lat, rng, 10, guard=0.03):
        u_red, _, _ = reduce_to_cell(lat, u)
        v = u_red / (2 * lat.omega1)
        for lam in (1, 2, 3):
            # The theta of index lam vanishes on omega_lam + lattice.
            lhs = (theta_dlog(lam, v, lat.tau) - theta_dlog(0, v, lat.tau)) / (2 * lat.omega1)
            rhs = delta(lat, lam, u, DeltaRoute.ZETA_DIFF).value
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_identity_chain_eq4_eq5():
    lat = make_lattice("generic")
    lc = constants(lat)
    rng = random.Random(29)
    for u in guarded_points(lat, rng, 10, guard=0.03):
        d1 = delta(lat, 1, u).value
        d2v = delta(lat, 2, u).value
        d3 = delta(lat, 3, u).value
        p = wp(lat, u).value
        assert abs(d1 * d2v - (p - lc.e3)) <= 1e-10 * max(abs(p), 1.0)
        assert abs(2 * d1 * d2v * d3 - wp_prime(lat, u).value) <= 1e-10 * max(
            abs(wp_prime(lat, u).value), 1.0
        )


def test_eq14_constancy():
    lat = make_lattice("generic")
    lc = constants(lat)
    rng = random.Random(31)
    for u in guarded_points(lat, rng, 10, guard=0.03):
        prod = delta2(lat, 1, 2, u).value * delta(lat, 3, u).value
        assert abs(prod - (lc.e1 - lc.e2)) <= 1e-10 * max(abs(lc.e1 - lc.e2), 1.0)


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_constants_recovery_is_point_independent(name):
    lat = make_lattice(name)
    lc = constants(lat)
    rng = random.Random(37)
    escale = max(abs(lc.e1), abs(lc.e2), abs(lc.e3))
    results = [
        constants_from_deltas(lat, u) for u in guarded_points(lat, rng, 5, guard=0.05)
    ]
    for r in results:
        assert abs(r.e1 - lc.e1) <= 1e-9 * escale
        assert abs(r.e2 - lc.e2) <= 1e-9 * escale
        assert abs(r.e3 - lc.e3) <= 1e-9 * escale
        assert abs(r.g2 - lc.g2) <= 1e-9 * escale**2
        assert abs(r.g3 - lc.g3) <= 1e-9 * escale**3
        assert abs(r.disc - lc.disc) <= 1e-9 * escale**6
        prod = 16 * ((lc.e1 - lc.e2) * (lc.e2 - lc.e3) * (lc.e3 - lc.e1)) ** 2
        assert abs(r.disc - prod) <= 1e-9 * escale**6
    first = results[0]
    for other in results[1:]:
        assert abs(first.e1 - other.e1) <= 1e-9 * escale
        assert abs(first.g2 - other.g2) <= 1e-9 * escale**2


def test_constants_recovery_guards_poles():
    lat = make_lattice("generic")
    with pytest.raises(PoleProximityError):
        constants_from_deltas(lat, lat.omega1)


def test_delta2_production_robust_in_degenerate_zones():
    # Inside the fallback zone around the removable 0/0 points of the
    # quotient form, the production route must stay relatively accurate.
    lat = make_lattice("generic")
    for base in (0j, lat.omega3):
        for eps in (1e-5, 1e-4, 3e-4):
            u = base + eps * (1 + 0.7j)
            wpv = delta2(lat, 1, 2, u, DeltaRoute.WP_QUOTIENT).value
            zd = delta2(lat, 1, 2, u, DeltaRoute.ZETA_DIFF).value
            assert abs(wpv - zd) <= 1e-10 * abs(zd)


def test_delta2_prime_robust_near_origin():
    lat = make_lattice("generic")
    lc = constants(lat)
    got = delta2_prime(lat, 1, 2, 1e-5 + 1e-5j).value
    assert abs(got - (lc.e2 - lc.e1)) <= 1e-6 * abs(lc.e1 - lc.e2)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.06, 0.94), b=st.floats(0.06, 0.94))
def test_property_delta2_antisymmetric_and_definitional(a, b):
    lat = make_lattice("generic")
    u = 2 * a * lat.omega1 + 2 * b * lat.omega3
    r12 = delta2(lat, 1, 2, u)
    r21 = delta2(lat, 2, 1, u)
    if not (r12.is_finite and r21.is_finite):
        return
    assert abs(r12.value + r21.value) <= 1e-10 * max(abs(r12.value), 1.0)
    d1 = delta(lat, 1, u)
    d2v = delta(lat, 2, u)
    if d1.is_finite and d2v.is_finite:
        assert abs(r12.value - (d1.value - d2v.value)) <= 1e-9 * max(abs(r12.value), 1.0)


def test_route_kernels_read_no_route_member_per_point(monkeypatch):
    # The kernels compare against module-level aliases of their routes' members:
    # on Python 3.11 each DeltaRoute.X or ZetaRoute.X read goes through
    # EnumType.__getattr__.  Such reads happen once per command, not per point.
    reads = []

    def counting(cls, name):
        if type.__getattribute__(cls, "__name__") in ("DeltaRoute", "ZetaRoute") and not name.startswith("_"):
            reads.append(name)
        return type.__getattribute__(cls, name)

    def table_reads(fn, route, count):
        reads.clear()
        argv = ["table", "--fn", fn, "--route", route, "--re=0.1:0.9:" + count, "--im=0.2:0.4:3", "--format", "csv"]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return len(reads)

    monkeypatch.setattr(type(DeltaRoute), "__getattribute__", counting)
    for fn, route in (("delta12", "wp"), ("delta1", "wp"), ("delta23", "sigma"), ("zeta2", "qseries"), ("zeta1", "partialfrac")):
        assert table_reads(fn, route, "2") == table_reads(fn, route, "21"), (fn, route)
