"""Per-lattice state: one `constants` entry per lattice, which also holds
the Jacobi parameters; once it is warm, no call recomputes the nullwerte or
the complete integrals, each multi-theta quotient runs one theta pass per
point, and each public call guards its point and looks its constants up
once.  The records are immutable values."""

import random
import sys

import pytest

from weierzeta import (
    DeltaRoute,
    SeriesConfig,
    ZetaRoute,
    agm_complete_integrals,
    build_lattice,
    constants,
    constants_from_deltas,
    default_suite,
    delta,
    delta2,
    delta2_prime,
    delta_prime,
    jacobi_E_Z,
    jacobi_params,
    run_suite,
    sigma,
    sigma_aux,
    sn_cn_dn,
    wp,
    wp_prime,
    zeta_aux,
    zeta_w,
)
from weierzeta import aux_zeta, lattice, theta, weier_core
from weierzeta.theta import DEFAULT_CONFIG
from weierzeta.verify import FUNCTIONS

from conftest import guarded_points, make_lattice


def _count_calls(monkeypatch, fn) -> list:
    """Record every call of fn made through any weierzeta module binding it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "weierzeta" or name.startswith("weierzeta."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _warm_calls(lat):
    params = jacobi_params(lat)
    return {
        "wp": lambda u: wp(lat, u),
        "wp_prime": lambda u: wp_prime(lat, u),
        "sn_cn_dn": lambda u: sn_cn_dn(params, params.scale * u),
        "delta2": lambda u: delta2(lat, 1, 2, u),
        "delta2_sigma": lambda u: delta2(lat, 2, 3, u, DeltaRoute.SIGMA_QUOTIENT),
        "delta2_theta": lambda u: delta2(lat, 3, 1, u, DeltaRoute.THETA_QUOTIENT),
        "delta_sigma": lambda u: delta(lat, 3, u, DeltaRoute.SIGMA_QUOTIENT),
        "delta_theta": lambda u: delta(lat, 2, u, DeltaRoute.THETA_QUOTIENT),
        "delta_wp": lambda u: delta(lat, 1, u, DeltaRoute.WP_QUOTIENT),
        "delta_zetadiff": lambda u: delta(lat, 3, u, DeltaRoute.ZETA_DIFF),
        "delta2_zetadiff": lambda u: delta2(lat, 2, 1, u, DeltaRoute.ZETA_DIFF),
        "zeta_aux_theta": lambda u: zeta_aux(lat, 1, u, ZetaRoute.THETA),
        "delta_prime": lambda u: delta_prime(lat, 2, u),
        "delta2_prime": lambda u: delta2_prime(lat, 1, 2, u),
    }


@pytest.fixture
def warm_lattice():
    lat = make_lattice("generic")
    constants(lat)
    # Points away from every half-period coset, so no call takes a
    # pole or degenerate-zone branch.
    return lat, guarded_points(lat, random.Random(2), 6)


def test_warm_lattice_never_recomputes_nullwerte(monkeypatch, warm_lattice):
    lat, pts = warm_lattice
    calls = _warm_calls(lat)
    nullwerte = _count_calls(monkeypatch, theta.theta_nullwerte)
    for fn in calls.values():
        for u in pts:
            fn(u)
    assert nullwerte == []


def test_one_theta_pass_per_point(monkeypatch, warm_lattice):
    lat, pts = warm_lattice
    # Also inside delta2's degenerate zone around omega_nu = omega_3, and
    # next to the origin, where delta2_prime's form has no 0/0.
    pts = pts + [lat.omega3 + 1e-4 * (1 + 0.7j), 1e-5 * (1 + 1j)]
    calls = _warm_calls(lat)
    passes = _count_calls(monkeypatch, theta._theta4)
    for name, fn in calls.items():
        before = len(passes)
        for u in pts:
            fn(u)
        assert len(passes) - before == len(pts), name


def test_one_guard_per_public_call(monkeypatch, warm_lattice):
    lat, pts = warm_lattice
    params = jacobi_params(lat)
    calls = {
        "zeta_w": lambda u: zeta_w(lat, u),
        "wp": lambda u: wp(lat, u),
        "wp_prime": lambda u: wp_prime(lat, u),
        "delta_prime": lambda u: delta_prime(lat, 2, u),
        "delta2_prime": lambda u: delta2_prime(lat, 1, 2, u),
        "sn_cn_dn": lambda u: sn_cn_dn(params, params.scale * u),
    }
    for r in ZetaRoute:
        calls[f"zeta_aux_{r.value}"] = lambda u, r=r: zeta_aux(lat, 3, u, r)
    for r in DeltaRoute:
        calls[f"delta_{r.value}"] = lambda u, r=r: delta(lat, 1, u, r)
        calls[f"delta2_{r.value}"] = lambda u, r=r: delta2(lat, 2, 3, u, r)
    guards = _count_calls(monkeypatch, weier_core.pole_status)
    # One set of cell coordinates per call; the shift form also locates
    # u + omega_lam.
    coords = _count_calls(monkeypatch, lattice.cell_coords)
    shifts = _count_calls(monkeypatch, aux_zeta._shift)
    for name, fn in calls.items():
        before = len(guards), len(coords), len(shifts)
        for u in pts:
            fn(u)
        assert len(guards) - before[0] == len(pts), name
        assert len(coords) - before[1] == len(pts) + len(shifts) - before[2], name
    assert len(shifts) == len(pts)  # the shift route's calls
    # Beyond QSERIES_STRIP (|beta| >= 0.45) the q-series route falls back to
    # the shift form, still behind the one guard.
    before = len(guards), len(coords), len(shifts)
    zeta_aux(lat, 1, 0.4 * lat.omega1 + 0.96 * lat.omega3, ZetaRoute.QSERIES)
    assert len(shifts) - before[2] == 1
    assert len(guards) - before[0] == 1
    assert len(coords) - before[1] == 2


def test_one_constants_lookup_per_public_call(warm_lattice):
    lat, pts = warm_lattice
    params = jacobi_params(lat)
    calls = {
        "sigma": lambda u: sigma(lat, u),
        "sigma_aux": lambda u: sigma_aux(lat, 2, u),
        "zeta_w": lambda u: zeta_w(lat, u),
        "wp": lambda u: wp(lat, u),
        "wp_prime": lambda u: wp_prime(lat, u),
        "delta_prime": lambda u: delta_prime(lat, 2, u),
        "delta2_prime": lambda u: delta2_prime(lat, 1, 2, u),
        "constants_from_deltas": lambda u: constants_from_deltas(lat, u),
        "jacobi_params": lambda u: jacobi_params(lat),
        "jacobi_E_Z": lambda u: jacobi_E_Z(lat, u),
    }
    # The table's sn, cn and dn: jacobi_params, then sn_cn_dn on its record.
    for name in ("sn", "cn", "dn"):
        calls[name] = lambda u, f=FUNCTIONS[name]: f.run(lat, DEFAULT_CONFIG, u, None, None)
    for r in ZetaRoute:
        calls[f"zeta_aux_{r.value}"] = lambda u, r=r: zeta_aux(lat, 3, u, r)
    for r in DeltaRoute:
        calls[f"delta_{r.value}"] = lambda u, r=r: delta(lat, 1, u, r)
        calls[f"delta2_{r.value}"] = lambda u, r=r: delta2(lat, 2, 3, u, r)
    # Past QSERIES_STRIP the q-series route takes the shift form.
    strip_edge = 0.4 * lat.omega1 + 0.96 * lat.omega3
    calls["zeta_aux_qseries_fallback"] = lambda u: zeta_aux(lat, 1, strip_edge, ZetaRoute.QSERIES)
    for name, fn in calls.items():
        for u in pts:
            before = constants.cache_info()
            fn(u)
            after = constants.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (1, 0), name
    # sn_cn_dn divides by what its params carry and looks nothing up.
    for u in pts:
        before = constants.cache_info()
        sn_cn_dn(params, params.scale * u)
        assert constants.cache_info() == before


def _records() -> dict:
    lat = make_lattice("generic")
    lc = constants(lat)
    spec = default_suite()[0]
    return {
        "Lattice": lat,
        "LatticeConstants": lc,
        "JacobiParams": lc.jacobi,
        "SeriesConfig": SeriesConfig(abs_tol=1e-15),
        "EvalResult": wp(lat, 0.21 + 0.13j),
        "DeltaConstants": constants_from_deltas(lat, 0.21 + 0.13j),
        "Function": FUNCTIONS["zeta2"],
        "IdentitySpec": spec,
        "IdentityReport": run_suite(lat, [spec], n=1)[0],
    }


@pytest.mark.parametrize(
    "name",
    [
        "Lattice", "LatticeConstants", "JacobiParams", "SeriesConfig", "EvalResult",
        "DeltaConstants", "Function", "IdentitySpec", "IdentityReport",
    ],
)
def test_records_are_immutable_values(name):
    rec = _records()[name]
    assert type(rec).__name__ == name
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1
    copy = type(rec)(*rec)
    assert copy is not rec
    assert copy == rec and hash(copy) == hash(rec)
    assert {rec: 1}[copy] == 1


def test_delta2_theta_route_needs_no_zeta_aux(monkeypatch):
    lat = build_lattice(0.5, 0.5 * (0.17 + 1.37j))  # new to the constants cache
    aux = _count_calls(monkeypatch, aux_zeta.zeta_aux)
    for lam, mu in ((1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (1, 3)):
        delta2(lat, lam, mu, 0.21 + 0.13j, DeltaRoute.THETA_QUOTIENT)
    assert aux == []


def test_constants_one_entry_however_cfg_is_passed():
    lat = build_lattice(0.5, 0.5 * (0.23 + 1.41j))
    first = constants(lat)
    assert constants(lat, DEFAULT_CONFIG) is first
    assert constants(lat, cfg=DEFAULT_CONFIG) is first
    assert constants(lat, SeriesConfig()) is first


def test_constants_of_lattice_serve_library_calls(monkeypatch):
    lat = build_lattice(0.5, 0.5 * (-0.19 + 1.29j))
    constants(lat)
    nullwerte = _count_calls(monkeypatch, theta.theta_nullwerte)
    wp(lat, 0.21 + 0.13j)
    assert nullwerte == []


def test_jacobi_params_built_once_per_lattice():
    lat = make_lattice("rhombic")
    assert jacobi_params(lat) is jacobi_params(lat)


def test_jacobi_params_are_the_constants_record():
    lat = build_lattice(0.5, 0.5 * (0.27 + 1.33j))
    assert jacobi_params(lat) is constants(lat).jacobi


def test_warm_jacobi_params_runs_no_agm(monkeypatch):
    lat = build_lattice(0.5, 0.5 * (-0.31 + 1.17j))  # new to the constants cache
    constants(lat)
    agm = _count_calls(monkeypatch, agm_complete_integrals)
    jacobi_params(lat)
    assert agm == []
