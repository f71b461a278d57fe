"""Library values against bench/reference.py's 30-digit mpmath values."""

import json

import pytest

from weierzeta import DeltaRoute, ZetaRoute, build_lattice, constants, delta, delta2, zeta_aux, zeta_w

from conftest import REFERENCE_TAUS
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


def _check(reference, ref, got, expected):
    assert got.is_finite
    assert reference.rel_error(got.value, expected, ref.unit) <= 1e-9


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
