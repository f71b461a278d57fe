"""Library values against bench/reference.py's 30-digit mpmath values."""

import json
import random

import pytest

from weierzeta import (
    DeltaRoute,
    ZetaRoute,
    build_lattice,
    constants,
    delta,
    delta2,
    delta2_prime,
    jacobi_E_Z,
    sigma,
    sigma_aux,
    wp,
    wp_prime,
    zeta_aux,
    zeta_w,
)

from conftest import REFERENCE_TAUS, guarded_points
from test_cli import run_cli


@pytest.mark.parametrize("height", [5, 6, 8, 10])
def test_disc_and_ksq_on_tall_lattices(reference, height):
    # The g-form discriminant and (e2 - e3)/(e1 - e3) cancel here: 8.4e-6
    # and 4.9e-12 relative error at 5i, 2.4e8 and 4.0e-4 at 10i.
    lc = constants(build_lattice(0.5, 0.5j * height))
    ref = reference.LatticeRef(0.5, 0.5j * height)
    ksq_ref = (ref.e2 - ref.e3) / (ref.e1 - ref.e3)
    assert reference.rel_error(lc.disc, ref.disc, 1e-300) <= 1e-14
    assert reference.rel_error(lc.ksq, ksq_ref, 1e-300) <= 1e-14


# The odd theta and theta_1 are of size |q|^(1/4) at ordinary points of a
# tall lattice (3.7e-14 at 40i), so only the exact zero may be refused.
TALL = [40, 60]
POINTS = [0.13 + 0.21j, -0.37 + 0.06j, 0.21 - 1.3j]


def _check(reference, ref, got, expected, weight=1):
    assert got.is_finite
    assert reference.rel_error(got.value, expected, ref.unit**weight) <= 1e-9


def _wp_prime(reference, ref, u):
    """wp'(u) from the reference's odd theta and its first three derivatives."""
    z = ref.c * u
    t = [reference.mp.jtheta(1, z, ref.q, k) for k in range(4)]
    d1, d2, d3 = t[1] / t[0], t[2] / t[0], t[3] / t[0]
    return -ref.c**3 * (d3 - 3 * d2 * d1 + 2 * d1**3)


@pytest.mark.parametrize("height", TALL)
def test_log_derivative_routes_on_very_tall_lattices(reference, height):
    lat = build_lattice(0.5, 0.5j * height)
    ref = reference.LatticeRef(0.5, 0.5j * height)
    for u in POINTS:
        _check(reference, ref, zeta_w(lat, u), ref.zeta(u))
        for lam in (1, 2, 3):
            _check(reference, ref, zeta_aux(lat, lam, u, ZetaRoute.THETA), ref.zeta_aux(lam, u))
            _check(
                reference, ref, delta(lat, lam, u, DeltaRoute.ZETA_DIFF),
                ref.zeta_aux(lam, u) - ref.zeta(u),
            )
        for lam, mu in ((1, 2), (2, 3), (3, 1)):
            _check(reference, ref, delta2(lat, lam, mu, u, DeltaRoute.ZETA_DIFF), ref.delta2(lam, mu, u))


@pytest.mark.parametrize("height", TALL)
def test_cli_eval_zeta_on_very_tall_lattices(reference, height):
    rc, out, err = run_cli(["eval", "--fn", "zeta", "--tau", f"0,{height}", "--u", "0.13,0.21"])
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["status"] == "Finite"
    ref = reference.LatticeRef(0.5, 0.5j * height)
    got = complex(*payload["value"])
    assert reference.rel_error(got, ref.zeta(0.13 + 0.21j), ref.unit) <= 1e-9


@pytest.mark.parametrize("eps", [6e-4, 1.1e-3, 1.5e-3, 2e-3])
def test_wp_forms_next_to_their_cancellation(reference, eps):
    # wp - e_k cancels next to omega_lam in delta's wp form and next to
    # omega_nu in delta2's: with a zone of 1e-3 min periods they were 4.0e-8,
    # 3.1e-8 and 1.7e-8 off on `tall` at the last three distances; at 6e-4
    # the smaller zones of the other lattices give way to the wp form.
    for tau in REFERENCE_TAUS.values():
        lat = build_lattice(0.5, 0.5 * tau)
        ref = reference.LatticeRef(0.5, 0.5 * tau)
        step = eps * (1 + 0.7j) * lat.min_period
        for lam, mu, nu in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 3, 2)):
            u = lat.half_period(lam) + step
            _check(reference, ref, delta(lat, lam, u, DeltaRoute.WP_QUOTIENT), ref.zeta_aux(lam, u) - ref.zeta(u))
            # Relative to the value itself, which vanishes at omega_nu.
            v = lat.half_period(nu) + step
            got = delta2(lat, lam, mu, v, DeltaRoute.WP_QUOTIENT)
            assert reference.rel_error(got.value, ref.delta2(lam, mu, v), 1e-300) <= 1e-9
            # And next to its other zero, u = 0, where nothing cancels: the wp
            # form serves from the pole radius out (1e-3 min periods out before).
            for w in (step, 1e-3 * step):
                got = delta2(lat, lam, mu, w, DeltaRoute.WP_QUOTIENT)
                assert reference.rel_error(got.value, ref.delta2(lam, mu, w), 1e-300) <= 1e-9


def test_sigma_quotients_deep_in_a_very_tall_cell(reference):
    # exp(eta1*u^2/(2*omega1)) underflows to 0 here; the quotients must not
    # form it (they raised ZeroDivisionError when every sigma carried it).
    lat = build_lattice(0.5, 20j)
    ref = reference.LatticeRef(0.5, 20j)
    u = 0.21 + 16j
    _check(reference, ref, wp_prime(lat, u), _wp_prime(reference, ref, u), weight=3)
    _check(reference, ref, delta2(lat, 1, 2, u), ref.delta2(1, 2, u))
    _check(reference, ref, delta(lat, 3, u), ref.zeta_aux(3, u) - ref.zeta(u))


@pytest.mark.parametrize("height", [8, 16])
def test_e_differences_that_cancel(reference, height):
    # e2 - e3 is of order |q| e1 here: taken as a difference of rounded e's
    # it made Delta_{2,3} 5.5e-7 off at 8i and 100% off at 16i.  The
    # reference runs at 60 digits: at 30 its own zeta_2 - zeta_3 is 5.8e-10
    # off at 16i.
    lat = build_lattice(0.5, 0.5j * height)
    with reference.mp.workdps(60):
        ref = reference.LatticeRef(0.5, 0.5j * height)
        for u in POINTS:
            want = ref.delta2(2, 3, u)
            for route in (DeltaRoute.WP_QUOTIENT, DeltaRoute.SIGMA_QUOTIENT):
                got = delta2(lat, 2, 3, u, route)
                assert got.is_finite
                assert reference.rel_error(got.value, want, 1e-300) <= 1e-9, route
            got = delta2_prime(lat, 2, 3, u)
            want = ref.wp(u + ref.w3) - ref.wp(u + ref.w2)
            assert got.is_finite
            assert reference.rel_error(got.value, want, 1e-300) <= 1e-9


def test_Z_in_another_basis(reference):
    # The ST image of the generic lattice, omega1' = omega1 + omega3 and
    # omega3' = -omega1: scale*omega1' is not K there, and Z by the paper's
    # zeta_3 form was 0.14 to 1.9 off.
    w1, w3 = 0.5, 0.5 * REFERENCE_TAUS["generic"]
    lat = build_lattice(w1 + w3, -w1)
    ref = reference.LatticeRef(w1 + w3, -w1)
    for a, b in ((0.23, 0.31), (-0.41, 0.12), (0.37, -0.28)):
        u = 2 * a * lat.omega1 + 2 * b * lat.omega3
        big_e, big_z = jacobi_E_Z(lat, u)
        want_e, want_z = ref.jacobi_E_Z(u)
        assert reference.rel_error(big_e, want_e, 1) <= 1e-12
        assert reference.rel_error(big_z, want_z, 1) <= 1e-12


@pytest.mark.parametrize(
    "tau", [*REFERENCE_TAUS.values(), 8j, 16j], ids=[*REFERENCE_TAUS, "8i", "16i"]
)
def test_zeta_aux_routes_against_60_digits(reference, tau):
    # Every route of the auxiliary zetas against the reference at 60 digits
    # (at 30 the reference's own zeta_2 - zeta_3 is 5.8e-10 off at 16i).
    # The partial fractions sum the whole coset; over a disc of 200 minimum
    # periods they were 0.9-6.3e-9 off on the five lattices, 2.0e-7 at 8i
    # and 7.0e-7 at 16i.
    lat = build_lattice(0.5, 0.5 * tau)
    tols = dict.fromkeys(ZetaRoute, 1e-13)
    tols[ZetaRoute.PARTIAL_FRACTION] = 1e-11 if tau in REFERENCE_TAUS.values() else 1e-9
    pts = guarded_points(lat, random.Random(repr(tau)), 4)
    with reference.mp.workdps(60):
        ref = reference.LatticeRef(0.5, 0.5 * tau)
        for u in pts:
            for lam in (1, 2, 3):
                want = ref.zeta_aux(lam, u)
                for route, tol in tols.items():
                    got = zeta_aux(lat, lam, u, route)
                    assert got.is_finite
                    assert reference.rel_error(got.value, want, ref.unit) <= tol, (route, lam, u)


def _sigma(reference, ref, u):
    """sigma(u) = exp(eta1 u^2 / (2 omega1)) theta1(c u) / (c theta1'(0)) by jtheta."""
    mp = reference.mp
    return mp.exp(ref.eta1 * u**2 / (2 * ref.w1)) * mp.jtheta(1, ref.c * u, ref.q) / (
        ref.c * mp.jtheta(1, 0, ref.q, 1)
    )


@pytest.mark.parametrize("name", list(REFERENCE_TAUS))
def test_core_functions_and_constants_against_60_digits(reference, name):
    # wp, zeta, sigma, the sigma_lam, e_lam, eta_lam, g2 and g3 on the five
    # lattices, each judged on its natural unit: g3 vanishes on the square
    # lattice and g2 on the rhombic one, so those two take |e1|^2 and |e1|^3.
    lat = build_lattice(0.5, 0.5 * REFERENCE_TAUS[name])
    lc = constants(lat)
    pts = guarded_points(lat, random.Random(name), 4)
    with reference.mp.workdps(60):
        ref = reference.LatticeRef(lat.omega1, lat.omega3)
        e1 = abs(ref.e1)
        errs = {
            "g2": reference.rel_error(lc.g2, ref.g2, e1**2),
            "g3": reference.rel_error(lc.g3, ref.g3, e1**3),
        }
        for lam in (1, 2, 3):
            errs[f"e{lam}"] = reference.rel_error(lc.e(lam), (ref.e1, ref.e2, ref.e3)[lam - 1], e1)
            errs[f"eta{lam}"] = reference.rel_error(lc.eta(lam), ref.eta(lam), ref.unit)
        for u in pts:
            for label, got, want, floor in (
                ("wp", wp(lat, u), ref.wp(u), ref.unit**2),
                ("zeta", zeta_w(lat, u), ref.zeta(u), ref.unit),
            ):
                assert got.is_finite, (label, u)
                errs[f"{label} {u}"] = reference.rel_error(got.value, want, floor)
            errs[f"sigma {u}"] = reference.rel_error(sigma(lat, u), _sigma(reference, ref, u), 1 / ref.unit)
            for lam in (1, 2, 3):
                w = ref.half_period(lam)
                want = reference.mp.exp(-ref.eta(lam) * u) * _sigma(reference, ref, u + w) / _sigma(reference, ref, w)
                errs[f"sigma{lam} {u}"] = reference.rel_error(sigma_aux(lat, lam, u), want, 1)
    assert max(errs.values()) <= reference.REL_TOL, max(errs, key=errs.get)
