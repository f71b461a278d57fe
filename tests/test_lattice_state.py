"""Per-lattice state: one `constants` entry per lattice, which also holds
the Jacobi moduli and integrals; once it is warm, no call recomputes the
nullwerte or the complete integrals, each multi-theta quotient runs one
theta pass per point, and each public call guards its point and looks its
constants up once.  The records are immutable values."""

import importlib
import pkgutil
import random

import pytest

import weierzeta

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
    jacobi_E_Z_Pi,
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
from weierzeta.errors import IdenticalIndices
from weierzeta.theta import DEFAULT_CONFIG
from weierzeta.functions import FUNCTIONS

from conftest import count_calls, guarded_points, make_lattice


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
    nullwerte = count_calls(monkeypatch, theta.theta_nullwerte)
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
    passes = count_calls(monkeypatch, theta._theta4)
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
    # The registry's guarded entries, handed the record and the located
    # point as table hands them.
    lc = constants(lat)
    for name in ("wp", "wp_prime", "zeta", "zeta2", "delta3", "delta31", "sn", "E"):
        f = FUNCTIONS[name]
        for r in f.routes or (None,):
            calls[f"FUNCTIONS[{name}]:{r}"] = lambda u, f=f, r=r: f.run(
                lc, lattice.locate(lat, u, DEFAULT_CONFIG), None, r
            )
    guards = count_calls(monkeypatch, weier_core.pole_status)
    # One location per call; the shift form also locates u + omega_lam.
    coords = count_calls(monkeypatch, lattice.locate)
    shifts = count_calls(monkeypatch, aux_zeta._shift)
    for name, fn in calls.items():
        before = len(guards), len(coords), len(shifts)
        for u in pts:
            fn(u)
        assert len(guards) - before[0] == len(pts), name
        assert len(coords) - before[1] == len(pts) + len(shifts) - before[2], name
    assert len(shifts) == 2 * len(pts)  # the shift route's calls, public and registry
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
        "jacobi_E_Z_Pi": lambda u: jacobi_E_Z_Pi(lat, u, pts[-1] - u),
    }
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


def test_registry_looks_nothing_up_when_handed_the_record():
    # Every entry on every route: as table and the suite call it, handed the
    # record, none, from the first call on a lattice new to the cache (the
    # partial-fraction route fills its tables into the record it is handed);
    # as eval calls it, without the record, one lookup.
    lat = build_lattice(0.5, 0.5 * (0.37 + 1.17j))  # new to the constants cache
    pts = guarded_points(lat, random.Random(2), 6)
    lc = constants(lat)
    for name, f in FUNCTIONS.items():
        for r in f.routes or (None,):
            for u in pts:
                a = pts[-1] - u if f.needs_a else None
                before = constants.cache_info()
                f.run(lc, lattice.locate(lat, u, DEFAULT_CONFIG), a, r)
                assert constants.cache_info() == before, (name, r)
                f.run(None, lattice.locate(lat, u, DEFAULT_CONFIG), a, r)
                after = constants.cache_info()
                assert (after.hits - before.hits, after.misses - before.misses) == (1, 0), (name, r)


def test_constants_is_the_only_cache():
    # The partial-fraction tables live in the record, so no module keeps a
    # cache of its own beside `constants`.
    caches = []
    for info in pkgutil.iter_modules(weierzeta.__path__):
        mod = importlib.import_module(f"weierzeta.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj is not constants and obj is not lattice._constants:
                caches.append(f"{info.name}.{name}")
    assert caches == []
    assert constants.cache_info == lattice._constants.cache_info


def test_filling_the_pair_tables_keeps_the_record_a_value(monkeypatch):
    lat = build_lattice(0.5, 0.5 * (-0.31 + 1.23j))  # new to the constants cache
    lc = constants(lat)
    copy, digest = type(lc)(*lc), hash(lc)
    assert lc.pair_tables == [None, None, None]
    built = count_calls(monkeypatch, aux_zeta._coset_tables)
    for lam in (1, 2, 3):
        for u in (0.21 + 0.13j, -0.17 + 0.09j):
            assert zeta_aux(lat, lam, u, ZetaRoute.PARTIAL_FRACTION).is_finite
    # One build per coset, kept in the record for every later point.
    assert [args[2] for args in built] == [1, 2, 3]
    assert all(tables is not None for tables in lc.pair_tables)
    assert hash(lc) == digest == hash(copy)
    assert lc == copy and {copy: 1}[lc] == 1


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda lc: lc.e(0), ValueError),  # returned e3
        (lambda lc: lc.e(4), ValueError),
        (lambda lc: lc.eta(0), ValueError),  # returned eta3
        (lambda lc: lc.eta(-1), ValueError),  # returned eta2
        (lambda lc: lc.ediff(2, 2), IdenticalIndices),  # returned e3 - e1
        (lambda lc: lc.ediff(1, 1), IdenticalIndices),  # raised an untyped IndexError
        (lambda lc: lc.ediff(0, 4), ValueError),  # returned e1 - e3
        (lambda lc: lc.ediff(3, 0), ValueError),
    ],
    ids=["e0", "e4", "eta0", "eta-1", "ediff22", "ediff11", "ediff04", "ediff30"],
)
def test_record_index_accessors_refuse_what_is_not_an_index(call, error):
    with pytest.raises(error):
        call(constants(make_lattice("generic")))


def _records() -> dict:
    lat = make_lattice("generic")
    lc = constants(lat)
    spec = default_suite()[0]
    return {
        "Lattice": lat,
        "LatticeConstants": lc,
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
        "Lattice", "LatticeConstants", "SeriesConfig", "EvalResult",
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
    if name == "LatticeConstants":
        # The Jacobi moduli, integrals and scale are fields of the one record.
        assert {"k", "kprime", "big_k", "big_e", "scale", "lattice", "cfg"} <= set(rec._fields)
        assert not hasattr(rec, "jacobi")


def test_delta2_theta_route_needs_no_zeta_aux(monkeypatch):
    lat = build_lattice(0.5, 0.5 * (0.17 + 1.37j))  # new to the constants cache
    aux = count_calls(monkeypatch, aux_zeta.zeta_aux)
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
    nullwerte = count_calls(monkeypatch, theta.theta_nullwerte)
    wp(lat, 0.21 + 0.13j)
    assert nullwerte == []


def test_jacobi_params_built_once_per_lattice():
    lat = make_lattice("rhombic")
    assert jacobi_params(lat) is jacobi_params(lat)


def test_jacobi_params_are_the_constants_record():
    lat = build_lattice(0.5, 0.5 * (0.27 + 1.33j))
    assert jacobi_params(lat) is constants(lat)


def test_warm_jacobi_params_runs_no_agm(monkeypatch):
    lat = build_lattice(0.5, 0.5 * (-0.31 + 1.17j))  # new to the constants cache
    constants(lat)
    agm = count_calls(monkeypatch, agm_complete_integrals)
    jacobi_params(lat)
    assert agm == []
