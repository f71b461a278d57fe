"""Auxiliary zeta functions: four routes, quasi-periodicity, q-series forms."""

import math
import random

import pytest

from weierzeta import (
    Status,
    ZetaRoute,
    aux_zeta,
    build_lattice,
    constants,
    wp,
    zeta_aux,
)
from weierzeta.functions import FUNCTIONS
from weierzeta.lattice import _coset_pairs, _fsum, locate
from weierzeta.theta import DEFAULT_CONFIG

from conftest import REFERENCE_TAUS, guarded_points, make_lattice


@pytest.mark.parametrize("lam", [1, 2, 3])
@pytest.mark.parametrize("route", list(ZetaRoute))
def test_origin_is_a_regular_root(lam, route):
    lat = make_lattice("generic")
    res = zeta_aux(lat, lam, 0.0, route)
    assert res.status is Status.FINITE
    assert abs(res.value) < 1e-11


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_oddness(lam):
    lat = make_lattice("generic")
    for u in (0.21 + 0.13j, -0.05 + 0.44j):
        a = zeta_aux(lat, lam, u).value
        b = zeta_aux(lat, lam, -u).value
        assert abs(a + b) <= 1e-11 * max(abs(a), 1.0)


def test_lattice_points_are_regular_with_quasi_period_values():
    lat = make_lattice("generic")
    lc = constants(lat)
    res = zeta_aux(lat, 2, 2 * lat.omega1 + 4 * lat.omega3)
    assert res.status is Status.FINITE
    assert abs(res.value - (2 * lc.eta1 + 4 * lc.eta3)) < 1e-11


def test_pole_status_on_shifted_coset():
    lat = make_lattice("generic")
    res = zeta_aux(lat, 1, lat.omega1)
    assert res.status is Status.AT_POLE
    assert res.pole == lat.omega1
    near = zeta_aux(lat, 3, lat.omega3 + 1e-10)
    assert near.status is Status.NEAR_POLE


def test_cross_route_agreement_generic_lattice():
    lat = make_lattice("generic")
    rng = random.Random(9)
    for lam in (1, 2, 3):
        pts = guarded_points(lat, rng, 50, guard=0.03, offsets=(lat.half_period(lam),))
        for u in pts:
            sh = zeta_aux(lat, lam, u, ZetaRoute.SHIFT).value
            th = zeta_aux(lat, lam, u, ZetaRoute.THETA).value
            qe = zeta_aux(lat, lam, u, ZetaRoute.QSERIES).value
            scale = max(abs(sh), 1e-30)
            assert abs(sh - th) <= 1e-10 * scale
            assert abs(sh - qe) <= 1e-10 * scale
            assert abs(th - qe) <= 1e-10 * scale
    # Partial fractions carry the truncated-tail error budget.
    for lam in (1, 2, 3):
        for u in guarded_points(lat, rng, 5, guard=0.03, offsets=(lat.half_period(lam),)):
            sh = zeta_aux(lat, lam, u, ZetaRoute.SHIFT).value
            pf = zeta_aux(lat, lam, u, ZetaRoute.PARTIAL_FRACTION).value
            assert abs(sh - pf) <= 1e-5 * max(abs(sh), 1.0)


def test_cosine_and_exponential_forms_agree():
    # The cos form is the table entry zeta{lam}_cos; the exp form is the
    # public q-series route, which the zeta{lam} entry gives bit for bit.
    lat = make_lattice("generic")
    lc = constants(lat)
    rng = random.Random(13)
    for lam in (1, 2, 3):
        for u in guarded_points(lat, rng, 20, guard=0.03, offsets=(lat.half_period(lam),)):
            p = locate(lat, u, DEFAULT_CONFIG)
            qe = FUNCTIONS[f"zeta{lam}"].run(lc, p, None, ZetaRoute.QSERIES)
            qc = FUNCTIONS[f"zeta{lam}_cos"].run(lc, p, None, None)
            assert qe == zeta_aux(lat, lam, u, ZetaRoute.QSERIES)
            assert qe.status is qc.status is Status.FINITE
            assert abs(qe.value - qc.value) <= 1e-12 * max(abs(qe.value), 1.0)


@pytest.mark.parametrize("pair", [(1, 1), (2, 3), (3, 1), (1, 2)])
def test_quasi_period_residuals(pair):
    lam, lp = pair
    lat = make_lattice("generic")
    lc = constants(lat)
    rng = random.Random(19)
    for u in guarded_points(lat, rng, 8, guard=0.03, offsets=(lat.half_period(lam),)):
        a = zeta_aux(lat, lam, u + 2 * lat.half_period(lp)).value
        b = zeta_aux(lat, lam, u).value
        assert abs(a - b - 2 * lc.eta(lp)) <= 1e-10


def test_combined_shift_additivity():
    lat = make_lattice("generic")
    lc = constants(lat)
    rng = random.Random(21)
    for u in guarded_points(lat, rng, 8, guard=0.03, offsets=(lat.omega1,)):
        a = zeta_aux(lat, 1, u + 2 * lat.omega1 + 2 * lat.omega3).value
        b = zeta_aux(lat, 1, u).value
        assert abs(a - b - 2 * lc.eta1 - 2 * lc.eta3) <= 2e-10


def test_not_elliptic():
    lat = make_lattice("generic")
    lc = constants(lat)
    assert abs(lc.eta1) > 1e-3
    u = 0.11 + 0.06j
    jump = zeta_aux(lat, 1, u + 2 * lat.omega1).value - zeta_aux(lat, 1, u).value
    assert abs(jump) > 1e-3


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_derivative_is_minus_shifted_wp(lam):
    lat = make_lattice("generic")
    rng = random.Random(29)
    h = 1e-5
    for u in guarded_points(lat, rng, 6, guard=0.15):
        fd = (
            zeta_aux(lat, lam, u + h).value - zeta_aux(lat, lam, u - h).value
        ) / (2 * h)
        assert abs(fd + wp(lat, u + lat.half_period(lam)).value) < 1e-6


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_routes_on_all_reference_lattices(name):
    lat = make_lattice(name)
    rng = random.Random(33)
    for lam in (1, 2, 3):
        for u in guarded_points(lat, rng, 8, guard=0.03, offsets=(lat.half_period(lam),)):
            sh = zeta_aux(lat, lam, u, ZetaRoute.SHIFT).value
            th = zeta_aux(lat, lam, u, ZetaRoute.THETA).value
            qe = zeta_aux(lat, lam, u, ZetaRoute.QSERIES).value
            scale = max(abs(sh), 1e-30)
            assert abs(sh - th) <= 1e-10 * scale
            assert abs(sh - qe) <= 1e-10 * scale


def test_bad_index_rejected():
    lat = make_lattice("square")
    with pytest.raises(ValueError):
        zeta_aux(lat, 0, 0.1)


def test_qseries_divergence_with_tiny_budget():
    import math

    from weierzeta import SeriesConfig, build_lattice
    from weierzeta.errors import SeriesDivergence

    # |q| = 0.85 decays slowly; a 6-term budget cannot converge.
    tau = 1j * (-math.log(0.85) / math.pi)
    lat = build_lattice(0.5, 0.5 * tau)
    cfg = SeriesConfig(abs_tol=1e-15, rel_tol=0.0, max_terms=6)
    with pytest.raises(SeriesDivergence):
        zeta_aux(lat, 2, 0.2 + 0.001j, ZetaRoute.QSERIES, cfg)


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_coset_closed_forms_match_the_disc_sums(name):
    # The partial-fraction tables' M_0 and M_1, with the near pairs they
    # leave out, are the whole coset's pair sums of P^-2 = p^-4 and P^-3:
    # A/6 and e_lam*A/10.  Against exactly rounded sums over the pairs of
    # the disc of 200 minimum periods, within that disc's truncation, read
    # off as the change of its sums from the disc of 100, plus rounding on
    # the sum of the magnitudes (the p^-6 sum is exactly 0 on the square
    # lattice's omega_2 coset).
    lat = make_lattice(name)
    r100, r200 = 100 * lat.min_period, 200 * lat.min_period
    for lam in (1, 2, 3):
        near, moments, rho = aux_zeta._coset_tables(lat, constants(lat), lam)
        inner = aux_zeta._pair_moments(near, rho)
        whole = (moments[-1] + inner[0], (moments[-2] + inner[1]) / rho**2)
        inv = [1.0 / big_p for big_p in _coset_pairs(lat, lam, 0.0, r100)]
        n100 = len(inv)
        inv += [1.0 / big_p for big_p in _coset_pairs(lat, lam, r100, r200)]
        for j, got in zip((2, 3), whole):
            terms = [x**j for x in inv]
            s100, s200 = _fsum(terms[:n100]), _fsum(terms)
            magnitude = math.fsum(abs(x) ** j for x in inv)
            assert abs(got - s200) <= abs(s200 - s100) + 1e-14 * magnitude


@pytest.mark.parametrize(
    "tau, k, tangent",
    [(0.5 + 2j, 1, -100.0), (REFERENCE_TAUS["rhombic"], 0, -48.0)],
    ids=["0.5+2i-coset1", "rhombic-coset0"],
)
def test_split_enumeration_keeps_rows_tangent_to_the_cut(tau, k, tangent):
    # The pair +-10i of the omega1 coset at tau = 0.5+2i, and the pair at
    # P = -48 of the rhombic lattice, lie on |p| = PAIR_SPLIT * rho, where
    # their row touches the circle: rounding made its discriminant negative,
    # and the pair fell in neither the near set nor the annulus.
    lat = build_lattice(0.5, 0.5 * tau)
    rho = aux_zeta._coset_tables(lat, constants(lat), max(k, 1))[2]
    split, cut = aux_zeta.PAIR_SPLIT * rho, aux_zeta.PAIR_ANNULUS * rho
    near = _coset_pairs(lat, k, 0.0, split)
    far = _coset_pairs(lat, k, split, cut)

    def order(pairs):
        return sorted(pairs, key=lambda z: (z.real, z.imag))

    assert order(near + far) == order(_coset_pairs(lat, k, 0.0, cut))
    assert any(abs(big_p - tangent) <= 1e-12 * abs(tangent) for big_p in near)


def test_partialfrac_zeta1_with_a_tangent_pair(reference):
    # Without the pair +-10i the route read 9.5e-9 in prop22 here.
    lat = build_lattice(0.5, 0.5 * (0.5 + 2j))
    pts = guarded_points(lat, random.Random(5), 4, offsets=(lat.omega1,))
    with reference.mp.workdps(60):
        ref = reference.LatticeRef(0.5, 0.5 * (0.5 + 2j))
        for u in pts:
            got = zeta_aux(lat, 1, u, ZetaRoute.PARTIAL_FRACTION)
            assert reference.rel_error(got.value, ref.zeta_aux(1, u), ref.unit) <= 1e-12, u
