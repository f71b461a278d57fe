"""Jacobi layer: AGM integrals vs quadrature, sn/cn/dn, transformation rows."""

import math
import random

import pytest

from weierzeta import (
    agm_complete_integrals,
    build_lattice,
    delta,
    delta2,
    constants,
    jacobi_E_Z_Pi,
    jacobi_params,
    sn_cn_dn,
)
from weierzeta.errors import BranchAmbiguity, DegenerateLattice, PoleProximityError, WeierzetaError

from conftest import (
    RECTANGULAR,
    REFERENCE_TAUS,
    check_cor212,
    check_thm211,
    guarded_points,
    make_lattice,
    suite_residuals,
)

PI = math.pi


def quad_complete_integrals(ksq: complex, dps: int = 30):
    """K and E from their defining integrals over theta in [0, pi/2], by
    mpmath's adaptive quadrature at dps digits (oracle)."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(dps):
        m = mp.mpc(ksq)
        big_k = mp.quad(lambda th: 1 / mp.sqrt(1 - m * mp.sin(th) ** 2), [0, mp.pi / 2])
        big_e = mp.quad(lambda th: mp.sqrt(1 - m * mp.sin(th) ** 2), [0, mp.pi / 2])
        return complex(big_k), complex(big_e)


def test_zero_modulus_integrals():
    K, E = agm_complete_integrals(0.0, 1.0)
    assert abs(K - PI / 2) < 1e-15
    assert abs(E - PI / 2) < 1e-15


def test_lemniscatic_K_frozen_value():
    K, _ = agm_complete_integrals(0.5, 0.5)
    assert abs(K - 1.8540746773013719) < 1e-14


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_agm_matches_quadrature(name):
    lat = make_lattice(name)
    p = jacobi_params(lat)
    Kq, Eq = quad_complete_integrals(constants(lat).ksq)
    assert abs(p.big_k - Kq) <= 1e-10 * abs(Kq)
    assert abs(p.big_e - Eq) <= 1e-10 * max(abs(Eq), 1.0)


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_K_is_quarter_period(name):
    lat = make_lattice(name)
    p = jacobi_params(lat)
    assert abs(p.big_k - p.scale * lat.omega1) <= 1e-12 * abs(p.big_k)


def test_moduli_consistency():
    lat = make_lattice("generic")
    p = jacobi_params(lat)
    assert abs(p.k**2 + p.kprime**2 - 1) < 1e-14
    assert abs(p.scale**2 - (constants(lat).e1 - constants(lat).e3)) < 1e-12 * abs(p.scale) ** 2


def test_degenerate_lattice_rejected():
    # A genuinely degenerate lattice: at tau = 5i, |disc| is 8.6e-5 against
    # |g2|^3 of about 2e7.
    with pytest.raises(DegenerateLattice):
        jacobi_params(build_lattice(0.5, 2.5j))
    lat = make_lattice("square")
    lc = constants(lat)
    # fake a degenerate configuration by a synthetic constants object
    from weierzeta.jacobi import jacobi_params as jp
    import weierzeta.jacobi as jac
    import weierzeta.lattice as latmod

    broken = lc._replace(degenerate=True)
    original = latmod.constants
    try:
        jac.constants = lambda *a, **k: broken
        for _ in range(2):  # a failed check leaves nothing behind
            with pytest.raises(DegenerateLattice):
                jp(lat)
    finally:
        jac.constants = original


def test_sn_cn_dn_normalisation_and_parity():
    lat = make_lattice("generic")
    p = jacobi_params(lat)
    assert sn_cn_dn(p, 0.0) == (0, 1, 1)
    x = 0.31 + 0.12j
    s1, c1, d1 = sn_cn_dn(p, x)
    s2, c2, d2 = sn_cn_dn(p, -x)
    assert abs(s1 + s2) < 1e-12 * max(abs(s1), 1.0)
    assert abs(c1 - c2) < 1e-12 * max(abs(c1), 1.0)
    assert abs(d1 - d2) < 1e-12 * max(abs(d1), 1.0)


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_sn_cn_dn_identities(name):
    lat = make_lattice(name)
    lc = constants(lat)
    p = jacobi_params(lat)
    rng = random.Random(41)
    for u in guarded_points(lat, rng, 50, guard=0.05):
        s, c, d = sn_cn_dn(p, p.scale * u)
        assert abs(s * s + c * c - 1) <= 1e-11 * max(abs(s) ** 2, 1.0)
        assert abs(d * d + lc.ksq * s * s - 1) <= 1e-11 * max(abs(s) ** 2, 1.0)


def test_sn_pole_proximity():
    lat = make_lattice("generic")
    p = jacobi_params(lat)
    with pytest.raises(PoleProximityError):
        sn_cn_dn(p, p.scale * lat.omega3)


def test_Pi_refuses_a_on_the_omega3_coset():
    # Pi added zeta_3(a) without its status: NaN labelled Finite.
    lat = make_lattice("generic")
    for a in (lat.omega3, lat.omega3 - 2 * lat.omega1, -lat.omega3 + 1e-10):
        for u in (0.1 + 0.05j, 0.0):
            with pytest.raises(PoleProximityError):
                jacobi_E_Z_Pi(lat, u, a)


def test_sn_periodicity_rectangular():
    lat = make_lattice("rect")
    p = jacobi_params(lat)
    for x in (0.21, 0.13 + 0.2j):
        s1, _, _ = sn_cn_dn(p, x)
        s2, _, _ = sn_cn_dn(p, x + 4 * p.big_k)
        assert abs(s1 - s2) <= 1e-10 * max(abs(s1), 1.0)


@pytest.mark.parametrize("name", RECTANGULAR)
def test_thm211_rows_on_rectangular(name):
    lat = make_lattice(name)
    rng = random.Random(43)
    w1 = lat.omega1.real
    for _ in range(25):
        u = rng.uniform(0.08 * w1, 0.92 * w1)
        resid = check_thm211(lat, u)
        assert max(resid) <= 1e-9, resid


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_thm211_squared_everywhere(name):
    lat = make_lattice(name)
    rng = random.Random(47)
    for u in guarded_points(lat, rng, 15, guard=0.06):
        resid = suite_residuals(lat, "thm211_squared_*", (u,))
        assert len(resid) == 6 and max(resid) <= 1e-9, resid


@pytest.mark.parametrize("name", RECTANGULAR)
def test_cor212_rows_on_rectangular(name):
    lat = make_lattice(name)
    rng = random.Random(53)
    w1 = lat.omega1.real
    for _ in range(25):
        u = rng.uniform(0.08 * w1, 0.92 * w1)
        resid = check_cor212(lat, u)
        assert max(resid) <= 1e-9, resid


def test_cor212_consistency_with_eq14():
    lat = make_lattice("generic")
    lc = constants(lat)
    rng = random.Random(59)
    for u in guarded_points(lat, rng, 10, guard=0.05):
        lhs = (lc.e2 - lc.e3) / delta2(lat, 2, 3, u).value
        rhs = delta(lat, 1, u).value
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_E_Z_Pi_vanish_at_zero():
    lat = make_lattice("rect")
    E, Z, Pi = jacobi_E_Z_Pi(lat, 0.0, 0.17 + 0.03j)
    assert E == 0 and Z == 0 and Pi == 0


def test_E_derivative_is_dn_squared():
    lat = make_lattice("rect")
    p = jacobi_params(lat)
    rng = random.Random(61)
    h = 1e-6
    for u in guarded_points(lat, rng, 8, guard=0.1, offsets=(lat.omega3,)):
        Ep = jacobi_E_Z_Pi(lat, u + h, 0.2)[0]
        Em = jacobi_E_Z_Pi(lat, u - h, 0.2)[0]
        _, _, d = sn_cn_dn(p, p.scale * u)
        assert abs((Ep - Em) / (2 * h) - p.scale * d * d) < 1e-6


@pytest.mark.parametrize("name", RECTANGULAR)
def test_Z_vanishes_at_K(name):
    lat = make_lattice(name)
    _, Z, _ = jacobi_E_Z_Pi(lat, lat.omega1, 0.1)
    assert abs(Z) <= 1e-9


def test_Z_relation_to_E_and_K():
    # Z(x) = E(x) - (E/K) x with the complete integrals from the AGM.
    lat = make_lattice("rect")
    p = jacobi_params(lat)
    for u in (0.11, 0.27 + 0.05j):
        E, Z, _ = jacobi_E_Z_Pi(lat, u, 0.1)
        x = p.scale * u
        assert abs(Z - (E - (p.big_e / p.big_k) * x)) <= 1e-10 * max(abs(E), 1.0)


def test_Pi_derivative_matches_integrand():
    lat = make_lattice("rect")
    lc = constants(lat)
    p = jacobi_params(lat)
    u0, a0 = 0.17 + 0.08j, 0.13 - 0.06j
    h = 1e-6
    dPi = (jacobi_E_Z_Pi(lat, u0 + h, a0)[2] - jacobi_E_Z_Pi(lat, u0 - h, a0)[2]) / (2 * h)
    sa, ca, da = sn_cn_dn(p, p.scale * a0)
    su, _, _ = sn_cn_dn(p, p.scale * u0)
    rhs = p.scale * lc.ksq * sa * ca * da * su**2 / (1 - lc.ksq * sa**2 * su**2)
    assert abs(dPi - rhs) < 1e-6


def test_Pi_branch_ambiguity_when_segment_hits_singularity():
    # Choose a so that the tracking segment from 0 to u passes through a
    # zero of sigma_3 (u - a = omega_3 at t = 1/2 when a = u/2 - omega_3).
    lat = make_lattice("rect")
    u = 0.4 + 0.1j
    a = u / 2 - lat.omega3
    with pytest.raises((BranchAmbiguity, PoleProximityError)):
        jacobi_E_Z_Pi(lat, u, a)


def test_pi_overflow_is_typed():
    # Visit 14 of the benchmark sweep at seed 11, an unreduced lattice where
    # the factors of Pi's sigma_aux calls overflow: the error is the
    # package's own, not a bare OverflowError.
    lat = build_lattice(-0.6023146064119039 + 1.1378012751788178j,
                        -1.9114756605068277 + 3.510893205775389j)
    u = -0.9560646401132007 + 1.7720284500609111j
    a = -4.035813921045829 + 7.465584129911877j
    with pytest.raises(WeierzetaError):
        jacobi_E_Z_Pi(lat, u, a)
