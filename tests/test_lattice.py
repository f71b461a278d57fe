"""Lattice construction, constants, and the lattice-sum oracles."""

import cmath
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weierzeta import (
    aux_zeta,
    build_lattice,
    constants,
    default_suite,
    eisenstein_invariants,
    sigma_product,
    wp,
    wp_lattice_sum,
    zeta_lattice_sum,
)
from weierzeta.cli import main
from weierzeta.errors import (
    ConvergencePolicyError, InvalidPeriodRatio, ValueOverflow, WeierzetaError, ZeroPeriod,
)
from weierzeta import lattice, weier_core
from weierzeta.lattice import (
    NEAR_POLE_FACTOR,
    complement,
    constants_to_json,
    locate,
    nearest_translate,
    reduce_to_cell,
)
from weierzeta.functions import FUNCTIONS
from weierzeta.theta import DEFAULT_CONFIG, SeriesConfig
from weierzeta.verify import POLE_GUARD, run_suite

from conftest import REFERENCE_TAUS, count_calls, make_lattice

PI = math.pi

# Complete elliptic integral at squared modulus 1/2 (lemniscatic case),
# K = Gamma(1/4)^2 / (4*sqrt(pi)); fixes e1 for the square lattice through
# K = omega1*sqrt(e1 - e3) with e3 = -e1.
K_LEMNISCATIC = 1.8540746773013719


def test_build_square_lattice():
    lat = build_lattice(0.5, 0.5j)
    assert lat.tau == 1j
    assert abs(lat.q - math.exp(-PI)) < 1e-16
    assert lat.omega2 == -(0.5 + 0.5j)
    assert lat.omega1 + lat.omega2 + lat.omega3 == 0


@pytest.mark.parametrize(
    "w1, w3, error",
    [
        (1e-300, 1e-300 * (0.3 + 1.1j), ZeroPeriod),  # the cell area underflows to 0
        (1e200, 1e200 * (0.3 + 1.1j), ValueOverflow),  # the cell area overflows
        (0.5, 0.5 * (1e-30 + 1e300j), ConvergencePolicyError),  # q^(1/4) underflows to 0
    ],
    ids=["area-underflow", "area-overflow", "q4-underflow"],
)
def test_build_refuses_cells_beyond_float_range(w1, w3, error):
    with pytest.raises(error):
        build_lattice(w1, w3)


@pytest.mark.parametrize("u", [1e308 + 1e308j, complex(math.inf, 0), complex(0, math.nan)])
def test_locate_refuses_coordinates_that_are_not_finite(u):
    lat = build_lattice(1e-5, 1e-5j)
    with pytest.raises(ValueOverflow):
        locate(lat, u, DEFAULT_CONFIG)


@pytest.mark.parametrize("u", [1e308, 1.7e308j, -1e308 - 1e308j])
def test_locate_refuses_translates_past_float_range(u):
    # The cell coordinates are finite, but 2*n or 2*m is an int past the
    # float range, so the reduction cannot be formed.
    lat = build_lattice(0.5, 0.55j)
    with pytest.raises(ValueOverflow):
        locate(lat, u, DEFAULT_CONFIG)


@pytest.mark.parametrize(
    "u", [2.0**52, -(2.0**52) - 8, 1e200, 2.0**52 * (0.3 + 1.1j)], ids=["alpha", "-alpha", "far", "beta"]
)
def test_locate_refuses_coordinates_without_a_fractional_bit(u):
    # From 2**52 on the cell coordinates are integers in floating point, so
    # the reduction cannot place u in its cell; just below it still can.
    lat = build_lattice(0.5, 0.55j)
    with pytest.raises(ValueOverflow, match="too large"):
        locate(lat, u, DEFAULT_CONFIG)
    assert abs(locate(lat, 2.0**51 + 0.5, DEFAULT_CONFIG).u_red) == 0.5  # spacing 0.5 at 2**51


def test_constants_type_the_overflow_of_the_period_scale():
    # (pi/(2*omega1))^2 overflows while the cell area is still a subnormal.
    lat = build_lattice(1e-155, 1e-155 * (0.3 + 1.1j))
    with pytest.raises(ValueOverflow, match="omega1"):
        constants(lat)


def test_build_rejects_flat_ratio():
    with pytest.raises(InvalidPeriodRatio):
        build_lattice(1.0, 1.0)


def test_build_rejects_zero_period():
    with pytest.raises(ZeroPeriod):
        build_lattice(0.0, 1j)
    with pytest.raises(ZeroPeriod):
        build_lattice(1.0, 0.0)


def test_build_derives_ratio():
    lat = build_lattice(0.5, 0.25 + 0.5j)
    assert abs(lat.tau - (0.5 + 1j)) < 1e-15


def test_build_rejects_large_nome():
    # Im(tau) tiny -> |q| close to 1.
    with pytest.raises(ConvergencePolicyError):
        build_lattice(0.5, 0.5 * 0.02j)


def test_reduction_and_coords():
    lat = make_lattice("generic")
    u = 0.123 - 0.456j + 6 * lat.omega1 - 4 * lat.omega3
    u_red, n, m = reduce_to_cell(lat, u)
    assert (n, m) == (3, -2)
    p = locate(lat, u_red, DEFAULT_CONFIG)
    assert abs(p.alpha) <= 0.5 + 1e-12 and abs(p.beta) <= 0.5 + 1e-12
    assert (p.n, p.m) == (0, 0)
    assert abs(u_red + 2 * n * lat.omega1 + 2 * m * lat.omega3 - u) < 1e-12


def test_nearest_translate_exact_hit():
    lat = make_lattice("generic")
    d, t = nearest_translate(lat, lat.omega1 + 2 * lat.omega3, lat.omega1)
    assert d == 0.0
    assert t == lat.omega1 + 2 * lat.omega3


@pytest.mark.parametrize("u", [complex(math.inf, 0), 1e300], ids=["inf", "1e300"])
@pytest.mark.parametrize("k", [0, 1])
def test_nearest_translate_refuses_what_locate_refuses(u, k):
    # u - offset is placed by `locate`: coordinates that are not finite, or
    # too large to keep a digit of the reduction, are a typed refusal, not
    # an untyped OverflowError from round or a translate equal to u.
    lat = make_lattice("generic")
    with pytest.raises(ValueOverflow, match="too large"):
        nearest_translate(lat, u, lat.offsets[k])


# Every distance a coset distance is compared with, in minimum periods: the
# pole radius, constants_from_deltas' guard, verify's sampling guard and
# guarded_points' default; the test adds the lattice's zones of delta and
# delta2 (`zeta_diff._zone`).
THRESHOLDS = (NEAR_POLE_FACTOR, 1e-6, POLE_GUARD, 0.05)

_W_SWEEP = 225 * cmath.exp(0.8442354444173306j)
THIN_BASES = {
    "tau=4+0.034i": (0.5, 0.5 * (4 + 0.034j)),
    "tau=-3.9+0.05i": (0.5, 0.5 * (-3.9 + 0.05j)),
    "sweep-reproducer": (_W_SWEEP, (2.0117 + 0.0387j) * _W_SWEEP),
}
BASES = {name: (0.5, 0.5 * tau) for name, tau in REFERENCE_TAUS.items()} | THIN_BASES


def _brute_nearest(lat, u, offset, reach=8):
    """Closest point of offset + lattice among (2*reach + 1)**2 candidates."""
    p = locate(lat, u - offset, DEFAULT_CONFIG)
    n0, m0 = p.n, p.m
    candidates = [
        offset + 2 * (n0 + dn) * lat.omega1 + 2 * (m0 + dm) * lat.omega3
        for dn in range(-reach, reach + 1)
        for dm in range(-reach, reach + 1)
    ]
    return min(candidates, key=lambda p: abs(u - p))


@pytest.mark.parametrize("name", sorted(BASES))
def test_nearest_translate_matches_brute_force_below_inradius(name):
    # The rounded translate is the nearest one within h/2, half the cell's
    # height min_period * sin(angle between the periods); every threshold
    # below h/2 must therefore get the decision and the translate of a
    # brute-force search, from nearest_translate and from the located point
    # (lattice.nearest) alike.
    lat = build_lattice(*BASES[name])
    half_height = 0.5 * lat.min_period * lat.tau.imag / abs(lat.tau)
    limits = [f * lat.min_period for f in THRESHOLDS] + list(constants(lat).zones)
    limits = [t for t in limits if t < half_height]
    assert len(limits) >= 3
    rng = random.Random(5)
    offsets = (0j, lat.omega1, lat.omega2, lat.omega3)
    pts = [2 * rng.uniform(-2, 2) * lat.omega1 + 2 * rng.uniform(-2, 2) * lat.omega3 for _ in range(40)]
    for t in limits:
        for off in offsets:
            for n, m in ((0, 0), (1, -1)):
                p = off + 2 * n * lat.omega1 + 2 * m * lat.omega3
                pts += [p + r * t * cmath.exp(2j * PI * rng.random()) for r in (0.5, 0.99, 1.01)]
    for u in pts:
        p = locate(lat, u, DEFAULT_CONFIG)
        for k, off in enumerate(offsets):
            nearest = _brute_nearest(lat, u, off)
            for dist, translate in (nearest_translate(lat, u, off), lattice.nearest(p, k)):
                for t in limits:
                    assert (dist < t) == (abs(u - nearest) < t), (u, off, t)
                    if dist < t:
                        assert translate == nearest, (u, off, t)


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(BASES)),
    n=st.integers(-(2**40), 2**40) | st.integers(-3, 3),
    m=st.integers(-(2**40), 2**40) | st.integers(-3, 3),
    r=st.sampled_from([0.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12]) | st.floats(0, 2) | st.floats(0, 1e8),
    angle=st.floats(0, 1),
)
def test_lattice_coset_guard_is_nearest_bit_for_bit(name, n, m, r, angle):
    # nearest's coset-0 distance and translate come from the located point's
    # cell coordinates; they must be the bits nearest_translate gives from
    # u's own, at exact lattice points, at the pole radius, anywhere in the
    # cell (r up to 1e8 pole radii) and at far translates.
    lat = build_lattice(*BASES[name])
    pt = 2 * n * lat.omega1 + 2 * m * lat.omega3
    u = pt + r * NEAR_POLE_FACTOR * lat.min_period * cmath.exp(2j * PI * angle)
    p = locate(lat, u, DEFAULT_CONFIG)
    got = lattice.nearest(p, 0)
    want = nearest_translate(lat, u, 0j)
    # repr round-trips every float and tells -0.0 from 0.0.
    assert list(map(repr, got)) == list(map(repr, want))


def _near_radii(lat):
    """Every radius a coset is tested at: the pole radius, verify's sampling
    guard and the zones of the wp routes, where the record builds."""
    radii = [NEAR_POLE_FACTOR * lat.min_period, POLE_GUARD * lat.min_period]
    try:
        radii += constants(lat).zones
    except WeierzetaError:
        pass
    return radii


def _near_agrees(lat, u):
    """near answers every coset and radius at u as nearest's distance does,
    with nearest's bits within the radius."""
    p = locate(lat, u, DEFAULT_CONFIG)
    for k in range(4):
        want = lattice.nearest(p, k)
        for r in _near_radii(lat):
            got = lattice.near(p, k, r, lattice.reach(r, lat.min_period))
            if want[0] < r:
                # repr round-trips every float and tells -0.0 from 0.0.
                assert got is not None and list(map(repr, got)) == list(map(repr, want)), (u, k, r)
            else:
                assert got is None, (u, k, r)


def _basis(re, im, scale, turn):
    omega1 = scale * cmath.exp(2j * PI * turn)
    return omega1, omega1 * complex(re, im)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    basis=st.sampled_from(sorted(BASES)).map(BASES.get)
    | st.builds(
        _basis, st.floats(-4, 4), st.floats(0.1, 40), st.floats(-3, 3).map(lambda e: 10.0**e), st.floats(0, 1)
    ),
    data=st.data(),
)
def test_near_is_nearest_below_the_radius(basis, data):
    # The cell-coordinate rejection is conservative: on reference, skewed,
    # thin (Im tau up to 40) and scaled cells, near agrees with nearest
    # anywhere in and around the cell, at r*(1 +- 1e-12) from a coset point
    # for every radius r and at its reach r + _SLACK*min_period, and at far
    # points (cell coordinates up to 2^50, where near measures).
    lat = build_lattice(*basis)
    kind = data.draw(st.sampled_from(["cell", "radius", "reach", "far"]))
    if kind == "cell":
        u = 2 * data.draw(st.floats(-1, 2)) * lat.omega1 + 2 * data.draw(st.floats(-1, 2)) * lat.omega3
    else:
        size = 2 ** data.draw(st.integers(0, 50)) if kind == "far" else 3
        n, m = data.draw(st.integers(-size, size)), data.draw(st.integers(-size, size))
        # A zone can be larger than the cell (tall cells) or infinite.
        r = data.draw(st.sampled_from([r for r in _near_radii(lat) if r < lat.min_period]))
        if kind == "reach":
            r += lattice._SLACK * lat.min_period
        d = r * data.draw(st.sampled_from([0.0, 1 - 1e-12, 1.0, 1 + 1e-12]))
        coset = data.draw(st.sampled_from(lat.offsets))
        # Across a row of the cell the distance is the cell-coordinate bound.
        rows = [1j * w / abs(w) for w in (lat.period1, lat.period3)]
        step = data.draw(st.sampled_from(rows) | st.floats(0, 1).map(lambda t: cmath.exp(2j * PI * t)))
        u = coset + 2 * n * lat.omega1 + 2 * m * lat.omega3 + d * step
    _near_agrees(lat, u)


def test_near_measures_every_distance_on_a_very_thin_cell():
    # Past _ASPECT the rounding of the cell coordinates is not bounded by the
    # slack, so the heights are zero and every test measures its distance.
    lat = build_lattice(0.5, 0.5 * (1e5 + 0.1j))
    assert lat.heights == (0.0, 0.0)
    rng = random.Random(7)
    for _ in range(20):
        _near_agrees(lat, 2 * rng.uniform(-1, 2) * lat.omega1 + 2 * rng.uniform(-1, 2) * lat.omega3)
    _near_agrees(lat, lat.omega3 + 1e-9 * lat.min_period)


def test_run_suite_measures_few_coset_distances(monkeypatch):
    # The sampler, the pole guard and the wp routes' zone tests reject by
    # cell coordinates; on generic at n=20 only the few points within reach
    # of a radius reach nearest (4, where every test measured 10,684).
    calls = count_calls(monkeypatch, lattice.nearest)
    run_suite(make_lattice("generic"), default_suite(), n=20, seed=12345)
    assert len(calls) < 20


def test_delta12_table_measures_no_far_point(monkeypatch, capsys):
    # Every nearest call of the delta12 table is for a point within reach of
    # the largest radius delta12 tests (its pole radius and the zone of
    # omega3).  The grid holds delta12's poles on omega1 + lattice (twice)
    # and omega2 + lattice, and its zeros 0 and omega3.
    nearest = lattice.nearest
    lat = make_lattice("generic")
    calls = count_calls(monkeypatch, nearest)
    argv = ["table", "--fn", "delta12", "--re=0:1:41", "--im=0:1.1:45", "--tau", "0.3,1.1", "--format", "csv"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row for row in rows if not row.endswith(",Finite")] == [
        "0.5,0.0,,,AtPole", "0.65,0.55,,,NearPole", "0.8,1.1,,,AtPole",
    ]
    radius = max(NEAR_POLE_FACTOR * lat.min_period, constants(lat).zones[2])
    assert calls
    assert all(nearest(*args)[0] < 4 * radius for args in calls)


@pytest.mark.parametrize("name", sorted(BASES))
def test_cell_geometry_is_built_with_the_lattice(name):
    # The fields hold what the per-point path computed from the half-periods.
    lat = build_lattice(*BASES[name])
    w1, w3 = 2 * lat.omega1, 2 * lat.omega3
    assert (lat.period1, lat.period3) == (w1, w3)
    assert lat.area == w1.real * w3.imag - w1.imag * w3.real
    assert lat.min_period == min(abs(w1), abs(w3))
    assert lat.heights == (abs(lat.area) / abs(w3), abs(lat.area) / abs(w1))
    assert lat.q4 == cmath.exp(0.25j * PI * lat.tau)
    assert lat.offsets == (0j, lat.omega1, lat.omega2, lat.omega3)
    assert [lat.half_period(k) for k in (1, 2, 3)] == [lat.omega1, lat.omega2, lat.omega3]


@pytest.mark.parametrize("name", sorted(BASES))
def test_radii_and_reaches_are_taken_once_per_lattice(name):
    # The pole guard and the wp routes' zone tests read the radius and reach
    # `near`'s margin is derived for: r and r + _SLACK*min_period.
    lat = build_lattice(*BASES[name])
    slack = lattice._SLACK * lat.min_period
    assert lat.pole_radius == NEAR_POLE_FACTOR * lat.min_period
    assert lat.pole_reach == lat.pole_radius + slack
    lc = constants(lat)
    assert lc.zone_reaches == tuple(z + slack for z in lc.zones)


def test_located_point_carries_its_lattice_and_config():
    # Every guard and kernel reads the lattice and the series config from the
    # point, so a dropped config is a TypeError, never the default.
    lat, u = make_lattice("generic"), 0.21 + 0.13j
    loose = SeriesConfig(abs_tol=1e-4, rel_tol=1e-4)
    p = locate(lat, u, loose)
    assert p.lat is lat and p.cfg is loose
    with pytest.raises(TypeError):
        locate(lat, u)
    assert weier_core._thetas(p) != weier_core._thetas(locate(lat, u, DEFAULT_CONFIG))
    assert FUNCTIONS["wp"].run(None, p, None, None) == wp(lat, u, loose) != wp(lat, u)


def test_locate_keeps_the_gaps_near_reads():
    # The reduced gaps |alpha - n|, |beta - m|, and none for a far point,
    # which `near` always measures.
    lat = make_lattice("generic")
    for a, b in ((0.3, 0.2), (-2.7, 5.49), (0.5, -0.5), (3e4, -3e4 + 0.25)):
        p = locate(lat, 2 * a * lat.omega1 + 2 * b * lat.omega3, DEFAULT_CONFIG)
        assert (p.gap_alpha, p.gap_beta) == (abs(p.alpha - p.n), abs(p.beta - p.m))
    far = locate(lat, 2 * 4e4 * lat.omega1 + 2 * 3e4 * lat.omega3, DEFAULT_CONFIG)
    assert abs(far.alpha) + abs(far.beta) >= 2.0**16
    assert far.gap_alpha is None and far.gap_beta is None


def test_complement_triples():
    assert complement(1) == (2, 3)
    assert complement(2) == (3, 1)
    assert complement(3) == (1, 2)
    with pytest.raises(ValueError):
        complement(4)


def test_square_lattice_constants_match_lemniscatic_values():
    lat = build_lattice(0.5, 0.5j)
    lc = constants(lat)
    e1_expected = (K_LEMNISCATIC / 0.5) ** 2 / 2
    assert abs(lc.e1 - e1_expected) < 1e-12 * e1_expected
    assert abs(lc.eta1 - PI / 2) < 1e-13
    assert abs(lc.g3) <= 1e-12 * abs(lc.g2)
    assert abs(lc.ksq - 0.5) < 1e-14


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_symmetric_function_invariants(name):
    lat = make_lattice(name)
    lc = constants(lat)
    scale = max(abs(lc.e1), abs(lc.e2), abs(lc.e3))
    assert abs(lc.e1 + lc.e2 + lc.e3) <= 1e-13 * scale
    assert abs(lc.eta1 + lc.eta2 + lc.eta3) <= 1e-13 * max(abs(lc.eta1), 1.0)
    assert abs(lc.e1 * lc.e2 + lc.e2 * lc.e3 + lc.e3 * lc.e1 + lc.g2 / 4) <= 1e-12 * scale**2
    assert abs(4 * lc.e1 * lc.e2 * lc.e3 - lc.g3) <= 1e-12 * scale**3
    assert abs(lc.ksq + lc.kpsq - 1) <= 1e-13
    # scale**6 is the natural size here; the discriminant itself can be much
    # smaller through cancellation (e.g. the tall lattice).
    prod = 16 * ((lc.e1 - lc.e2) * (lc.e2 - lc.e3) * (lc.e3 - lc.e1)) ** 2
    assert abs(prod - lc.disc) <= 1e-12 * scale**6


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_legendre_relation_against_lattice_sum(name):
    # eta3 comes from the Legendre relation in production, so check it
    # against an independent zeta lattice sum at omega3.
    lat = make_lattice(name)
    lc = constants(lat)
    eta3_brute = zeta_lattice_sum(lat, lat.omega3, radius=200)
    assert abs(lc.eta3 - eta3_brute) < 1e-6 * max(1.0, abs(eta3_brute))
    assert abs(lc.eta1 * lat.omega3 - lc.eta3 * lat.omega1 - 1j * PI / 2) < 1e-12


def test_scaling_covariance():
    s = 1.3 * cmath.exp(0.4j)
    a = constants(build_lattice(0.5, 0.5 * (0.3 + 1.1j)))
    b = constants(build_lattice(0.5 * s, 0.5 * s * (0.3 + 1.1j)))
    for lam, (ea, eb) in enumerate(zip((a.e1, a.e2, a.e3), (b.e1, b.e2, b.e3)), start=1):
        assert abs(eb - ea / s**2) < 1e-12 * abs(ea)
    for ea, eb in zip((a.eta1, a.eta2, a.eta3), (b.eta1, b.eta2, b.eta3)):
        assert abs(eb - ea / s) < 1e-12 * max(abs(ea), 1.0)
    assert abs(b.g2 - a.g2 / s**4) < 1e-12 * abs(a.g2)
    assert abs(b.g3 - a.g3 / s**6) < 1e-12 * max(abs(a.g3), 1.0)


def test_eisenstein_square_lattice_symmetry():
    lat = build_lattice(0.5, 0.5j)
    g2s, g3s = eisenstein_invariants(lat, 200)
    lc = constants(lat)
    assert abs(g3s) <= 1e-10 * abs(lc.g2) ** 1.5
    assert abs(g2s - lc.g2) <= 1e-8 * abs(lc.g2)


def test_eisenstein_truncation_error_shrinks():
    lat = build_lattice(0.5, 0.5j)
    lc = constants(lat)
    errs = [abs(eisenstein_invariants(lat, r)[0] - lc.g2) for r in (5, 20, 80)]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_eisenstein_matches_theta_route(name):
    lat = make_lattice(name)
    lc = constants(lat)
    g2s, g3s = eisenstein_invariants(lat, 200)
    scale = max(abs(lc.e1), abs(lc.e2), abs(lc.e3))
    assert abs(g2s - lc.g2) <= 1e-6 * max(abs(lc.g2), scale**2)
    assert abs(g3s - lc.g3) <= 1e-6 * max(abs(lc.g3), scale**3)
    with pytest.raises(ValueError):
        eisenstein_invariants(lat, 0)


def _disc_points(lat, radius, k):
    """Every point p != 0 of omega_k + lattice (k = 0 the lattice) with
    |p| <= radius * min period, from explicit (n, m) loops."""
    offset = (0j, lat.omega1, lat.omega2, lat.omega3)[k]
    w1, w3 = 2 * lat.omega1, 2 * lat.omega3
    cut = radius * lat.min_period
    area = abs((w1.conjugate() * w3).imag)
    n_span = int((cut + abs(offset)) * abs(w3) / area) + 2
    m_span = int((cut + abs(offset)) * abs(w1) / area) + 2
    pts = []
    for n in range(-n_span, n_span + 1):
        for m in range(-m_span, m_span + 1):
            p = offset + n * w1 + m * w3
            if 0 < abs(p) <= cut:
                pts.append(p)
    return pts


def _fsum(terms):
    """Sum of complex terms, each part summed exactly rounded."""
    terms = list(terms)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _numpy_half_table(lat, radius, k):
    """P = p*p for one point p of each pair +-p of omega_k + lattice inside
    the disc |p| <= radius * min period, by numpy over an index box: the
    reference the pure-Python `lattice._coset_pairs` is checked against.
    The pair's representative is chosen as there: with (alpha, beta) the
    coset's cell coordinates, p = omega_k + 2n*omega1 + 2m*omega3 when
    (m + beta, n + alpha) > (0, 0) in lexicographic order."""
    two_w1, two_w3 = lat.period1, lat.period3
    alpha, beta = lattice._HALF_CELL[k]
    offset = alpha * two_w1 + beta * two_w3
    cut = radius * lat.min_period
    area = abs(lat.area)
    n_span = int(math.ceil((cut + abs(offset)) * abs(two_w3) / area)) + 1
    m_span = int(math.ceil((cut + abs(offset)) * abs(two_w1) / area)) + 1
    n = np.arange(-n_span, n_span + 1)
    m = np.arange(math.ceil(-beta), m_span + 1)
    p = offset + n * two_w1 + m[:, None] * two_w3
    keep = ((m[:, None] + beta > 0) | (n + alpha > 0)) & (np.abs(p) <= cut)
    p = p[keep]
    return p * p


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_half_table_holds_one_point_of_each_pair(name, k):
    # Square and rhombic put points on the imaginary axis, where a rule on
    # the sign of Re p would keep both p and -p or neither.
    lat = make_lattice(name)
    pts = np.array(_disc_points(lat, 20, k))
    table = np.array(lattice._coset_pairs(lat, k, 0.0, 20 * lat.min_period))
    assert 2 * len(table) == len(pts)
    # Match each disc point to the table entry nearest its square: every
    # entry is met by exactly two points, and those two are p and -p.
    sq = pts * pts
    hit = np.abs(sq[:, None] - table[None, :]).argmin(axis=1)
    assert np.all(np.abs(sq - table[hit]) <= 1e-13 * np.abs(sq))
    assert np.all(np.bincount(hit, minlength=len(table)) == 2)
    order = np.argsort(hit, kind="stable")
    first, second = pts[order[0::2]], pts[order[1::2]]
    assert np.all(np.abs(first + second) <= 1e-13 * np.abs(first))


def _disc_split(lat, k, radius):
    """(near, far, moments, rho) of the partial-fraction route's pair form
    over the pairs of the disc |p| <= radius * min period instead of the
    whole coset: the pairs within PAIR_SPLIT * rho and the rest of the disc,
    both by `lattice._coset_pairs`, and the rest's `_pair_moments`, highest
    first, as `aux_zeta._pair_series` reads them."""
    rho = aux_zeta._coset_tables(lat, constants(lat), k)[2]
    assert rho == max(abs(lat.omega1 + lat.omega3), abs(lat.omega1 - lat.omega3))
    cut = radius * lat.min_period
    split = min(cut, aux_zeta.PAIR_SPLIT * rho)
    near = lattice._coset_pairs(lat, k, 0.0, split)
    far = lattice._coset_pairs(lat, k, split, cut)
    return near, far, aux_zeta._pair_moments(far, rho)[::-1], rho


def _pair_keys(lat, squares):
    """The doubled cell coordinates (2a, 2b) of one point p = 2a*omega1 +
    2b*omega3 of each pair +-p with the given squares, the pair's sign fixed
    as in `lattice._coset_pairs`, in lexicographic order; and the squares in
    that order."""
    big_p = np.asarray(squares)
    p, w1, w3 = np.sqrt(big_p), lat.period1, lat.period3
    a = (p.real * w3.imag - p.imag * w3.real) / lat.area  # `locate`'s cell coordinates
    b = (w1.real * p.imag - w1.imag * p.real) / lat.area
    a, b = np.rint(2 * a).astype(int), np.rint(2 * b).astype(int)
    sign = np.where((b < 0) | ((b == 0) & (a < 0)), -1, 1)
    a, b = sign * a, sign * b
    order = np.lexsort((a, b))
    return np.stack([b[order], a[order]]), big_p[order]


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_paired_oracles_match_unpaired_sums(name):
    # Each oracle against its defining sum over every point of the disc,
    # p and -p as separate terms.
    lat = make_lattice(name)
    lc = constants(lat)
    u = 0.3 * lat.omega1 + 0.2 * lat.omega3  # in the centred cell, off every coset
    pts = _disc_points(lat, 20, 0)

    def close(got, lead, terms, tol=1e-12):
        terms = list(terms)
        scale = abs(lead) + sum(abs(t) for t in terms)
        assert abs(got - (lead + _fsum(terms))) <= tol * scale

    close(zeta_lattice_sum(lat, u, radius=20), 1 / u, (1 / (u - p) + 1 / p + u / p**2 for p in pts))
    close(wp_lattice_sum(lat, u, radius=20), 1 / u**2, (1 / (u - p) ** 2 - 1 / p**2 for p in pts))
    g2, g3 = eisenstein_invariants(lat, 20)
    close(g2, 0, (60 / p**4 for p in pts))
    close(g3, 0, (140 / p**6 for p in pts))
    log_sum = _fsum(cmath.log(1 - u / p) + u / p + u * u / (2 * p * p) for p in pts)
    sig = u * cmath.exp(log_sum)
    assert abs(sigma_product(lat, u, radius=20) - sig) <= 1e-12 * abs(sig)

    # The partial-fraction route's pair form, over the same disc.
    for lam in (1, 2, 3):
        terms = (1 / (u - p) + 1 / p + u / p**2 for p in _disc_points(lat, 20, lam))
        near, _, moments, rho = _disc_split(lat, lam, 20)
        close(-lc.e(lam) * u + aux_zeta._pair_series(near, moments, rho, u), -lc.e(lam) * u, terms)


@pytest.mark.parametrize("radius", [1, 20, 200])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_split_pair_sum_matches_the_direct_sum(name, k, radius):
    # At reduced points the near pairs are summed term by term and the far
    # ones from moments; against the pairwise sum over the same pairs.  The
    # pure-Python enumeration lists the pairs of the numpy reference table,
    # each square within two units in the last place (numpy may fuse the
    # square's multiply and add).
    lat = make_lattice(name)
    near, far, moments, rho = _disc_split(lat, k, radius)
    table = np.array(near + far)
    keys, squares = _pair_keys(lat, table)
    numpy_keys, numpy_squares = _pair_keys(lat, _numpy_half_table(lat, radius, k))
    assert np.array_equal(keys, numpy_keys)
    assert np.all(np.abs(squares - numpy_squares) <= 4.5e-16 * np.abs(numpy_squares))
    if radius > 1:
        assert len(near) < len(table)  # the far field is taken from moments
    w1, w3 = lat.omega1, lat.omega3
    corners = [w1 + w3, w1 - w3, -w1 - w3, w3 - w1]  # |u| = rho at two of them
    if k == 2:
        corners = [(1 - 1e-9) * c for c in corners]  # the corners are omega_2's coset
    near_cosets = [s * lat.offsets[j] for j in (1, 2, 3) for s in (1 - 1e-3, 1 - 1e-6)]
    rng = random.Random(f"{name}{k}{radius}")
    inside = [
        locate(lat, complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), DEFAULT_CONFIG).u_red for _ in range(8)
    ]
    for u in corners + near_cosets + inside:
        assert abs(u) <= rho
        terms = 2 * u**3 / (table * (u * u - table))
        got = aux_zeta._pair_series(near, moments, rho, u)
        assert abs(got - complex(math.fsum(terms.real), math.fsum(terms.imag))) <= 1e-13 * np.sum(np.abs(terms))
    assert max(abs(c) for c in corners) == rho or k == 2


def test_pair_sum_beyond_the_cell_is_the_direct_sum():
    # zeta_lattice_sum is the exactly rounded direct sum over the pairs of
    # its disc, bit for bit, beyond the cell and at a reduced point alike;
    # and that sum is within rounding of the numpy reference table's.
    lat = make_lattice("generic")
    pairs = lattice._coset_pairs(lat, 0, 0.0, 20 * lat.min_period)
    table = _numpy_half_table(lat, 20, 0)
    for u in (3.2 + 1.7j, 0.3 * lat.omega1 + 0.2 * lat.omega3):
        direct = 1.0 / u + 2 * u**3 * _fsum(1.0 / (big_p * (u * u - big_p)) for big_p in pairs)
        assert zeta_lattice_sum(lat, u, 20) == direct
        terms = 2 * u**3 / (table * (u * u - table))
        numpy_direct = 1.0 / u + complex(math.fsum(terms.real), math.fsum(terms.imag))
        assert abs(direct - numpy_direct) <= 1e-15 * (abs(1 / u) + np.sum(np.abs(terms)))


def _pair_estimate(lat, r):
    """The pair count `lattice._coset_pairs` estimates for the disc of radius
    r: half the cells of area |area| the disc covers."""
    return math.pi * r * r / (2 * abs(lat.area))


@pytest.mark.parametrize("name", sorted(BASES))
def test_pair_estimate_follows_the_count(name):
    # On the partial-fraction route's two discs the estimate is within 10%
    # of the count at PAIR_SPLIT*rho (50 to 18,500 pairs) and within 1% at
    # PAIR_ANNULUS*rho (800 to 296,000).  The oracles' largest disc, 200 min
    # periods, stays under half the cap on every base, thin ones included.
    lat = build_lattice(*BASES[name])
    rho = max(abs(lat.omega1 + lat.omega3), abs(lat.omega1 - lat.omega3))
    for k in (0, 2):
        for factor, tol in ((aux_zeta.PAIR_SPLIT, 0.1), (aux_zeta.PAIR_ANNULUS, 0.01)):
            count = len(lattice._coset_pairs(lat, k, 0.0, factor * rho))
            assert abs(_pair_estimate(lat, factor * rho) / count - 1) <= tol, (k, factor, count)
    assert _pair_estimate(lat, 200 * lat.min_period) < lattice.MAX_PAIRS / 2


def test_pair_enumeration_refuses_past_its_cap(monkeypatch):
    # The cap is read against the estimate, before any pair is listed.
    lat = make_lattice("generic")
    r = 32 * lat.min_period
    estimate = _pair_estimate(lat, r)
    monkeypatch.setattr(lattice, "MAX_PAIRS", estimate * (1 + 1e-9))
    assert lattice._coset_pairs(lat, 1, 0.0, r)
    monkeypatch.setattr(lattice, "MAX_PAIRS", estimate * (1 - 1e-9))
    with pytest.raises(ConvergencePolicyError, match=r"pairs of the coset .* half-periods \(0\.5\+0j\)"):
        lattice._coset_pairs(lat, 1, 0.0, r)


def test_thin_basis_partial_fractions_refuse_in_bounded_memory():
    # tau = 1e5+0.1i builds (|q| = 0.73), but its circumradius is 1e5
    # periods, so the route's near disc alone holds about 2.5e12 pairs.
    # Run only in a child under a 1 GiB address-space limit: without the
    # cap the enumeration grows to gigabytes and dies with MemoryError.
    resource = pytest.importorskip("resource")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(lattice.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "weierzeta.cli", "eval", "--fn", "zeta1", "--route", "partialfrac",
         "--tau", "100000,0.1", "--u", "0.1,0.02"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit,
    )
    assert proc.returncode == 2, proc.stderr
    assert "about 2.51e+12 pairs of the coset" in proc.stderr
    assert f"more than MAX_PAIRS = {lattice.MAX_PAIRS}" in proc.stderr


def test_oracles_refuse_radius_below_one():
    # eisenstein_invariants: see test_eisenstein_matches_theta_route.
    lat = make_lattice("generic")
    u = 0.3 * lat.omega1 + 0.2 * lat.omega3
    for oracle in (wp_lattice_sum, zeta_lattice_sum, sigma_product):
        with pytest.raises(ValueError):
            oracle(lat, u, radius=0)


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 0.45 + 0.04j, 3j, 5j, 8j])
def test_degeneracy_is_scale_free(tau):
    # The degeneracy test takes the e differences scaled by a power of two
    # near 1/max|e|, which is exact: where the unscaled powers are normal
    # numbers it decides as |disc| <= 1e-10 * max(|g2|^3, 27 |g3|^2) does,
    # and at any scale as at unit scale.  Unscaled, |g2|^3 overflowed from
    # omega1 = 1e-30 (a traceback) and disc underflowed to 0 at 1e30.
    unit = constants(build_lattice(0.5, 0.5 * tau)).degenerate
    assert unit == (abs(tau) >= 5)
    for w1 in (1e-3, 0.037, 7.3, 1e3):
        lc = constants(build_lattice(w1, w1 * tau))
        assert lc.degenerate == (abs(lc.disc) <= 1e-10 * max(abs(lc.g2) ** 3, 27 * abs(lc.g3) ** 2, 1e-300))
        assert lc.degenerate == unit
    for j in (-150, -100, 100, 150):
        w1 = math.ldexp(0.5, j)
        assert constants(build_lattice(w1, w1 * tau)).degenerate == unit


@pytest.mark.parametrize("scale", [1e-80, 1e-30, 1e30, 1e80])
def test_zones_keep_their_size_in_periods_at_any_scale(scale):
    # A zone scales as the periods do.  Unscaled, the products of two e
    # differences overflowed at omega1 = 1e-80 and every zone read 0.0, and
    # at 1e80 they underflowed and `constants` raised ZeroDivisionError.
    tau = 0.3 + 1.1j
    unit = build_lattice(1.0, tau)
    lat = build_lattice(scale, scale * tau)
    want = [z / unit.min_period for z in constants(unit).zones]
    got = [z / lat.min_period for z in constants(lat).zones]
    assert [round(z, 5) for z in want] == [3.8e-4, 5.8e-4, 5.0e-4]
    assert got == pytest.approx(want, rel=1e-12)


def test_zones_are_bit_identical_at_unit_scale():
    # The scaling by 2^-2k is exact, so the zones are the unscaled formula's.
    eps = 2.0**-52
    for name in sorted(REFERENCE_TAUS):
        lc = constants(make_lattice(name))
        e_max = max(abs(lc.e1), abs(lc.e2), abs(lc.e3))
        d23, d13, d12 = lc.ediffs
        want = tuple(
            math.sqrt(10 * eps * e_max / (1e-9 * abs(a))) for a in (d12 * d13, d12 * d23, d13 * d23)
        )
        assert lc.zones == want, name


def test_constants_json_schema():
    lat = build_lattice(0.5, 0.5j)
    payload = constants_to_json(lat, constants(lat))
    assert set(payload) == {
        "omega1", "omega3", "tau", "q", "e", "eta", "g2", "g3", "disc", "ksq", "kpsq",
    }
    assert payload["omega1"] == [0.5, 0.0]
    assert len(payload["e"]) == 3 and len(payload["eta"]) == 3
    assert all(len(pair) == 2 for pair in payload["e"])
    # disc recomputable from the emitted g2, g3
    g2 = complex(*payload["g2"])
    g3 = complex(*payload["g3"])
    assert abs(complex(*payload["disc"]) - (g2**3 - 27 * g3**2)) < 1e-6 * abs(g2) ** 3
