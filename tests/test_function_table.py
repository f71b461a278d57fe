"""The function table covers every public evaluation at a lattice point.

Each public evaluator of the package maps to its table entries, and each
entry's run gives, bit for bit, what the public function gives: the same
EvalResult, or the same value and a non-finite status where the public
function raises PoleProximityError.  A public function is either covered
here or named among the exemptions, so a new one must be placed; an entry
is some public function's, or named as table-only.
"""

import inspect
import random

import pytest

import weierzeta as wz
from weierzeta.errors import PoleProximityError, WeierzetaError
from weierzeta.functions import FUNCTIONS
from weierzeta.lattice import build_lattice, locate
from weierzeta.theta import DEFAULT_CONFIG

from conftest import make_lattice

# Evaluations that are not of one lattice point: the slow lattice-sum and
# product oracles, the Eisenstein sums, the theta helpers (of v and tau),
# the constant records and the cell reduction.
EXEMPT = {
    "wp_lattice_sum", "zeta_lattice_sum", "sigma_product", "eisenstein_invariants",
    "theta_eval", "theta_dlog", "theta_nullwerte", "constants_from_deltas", "constants",
    "jacobi_params", "agm_complete_integrals", "reduce_to_cell",
}

# Public functions that evaluate nothing: lattice construction, JSON, the suite.
NOT_EVALUATIONS = {
    "build_lattice", "complement", "constants_to_json",
    "default_suite", "run_suite", "report_to_json", "reports_to_json",
}

# Table entries with no public function of their own: the q-series in its
# cos form (Prop 2.3), which the suite's prop23_cos_form rows and
# test_aux_zeta compare with the public q-series route.
TABLE_ONLY = {"zeta1_cos", "zeta2_cos", "zeta3_cos"}

CYCLIC = ((1, 2), (2, 3), (3, 1))
PI_A = 0.1 + 0.05j


def _covered(lat) -> dict:
    """Each public evaluator by name: its (entry, route, public call at u,
    the point the call evaluates u at) for every table entry it maps to.
    sn_cn_dn takes x = scale*u and evaluates x/scale; the record holds the
    scale of a degenerate lattice too, whose Jacobi calls raise."""
    scale = wz.constants(lat).scale

    def jacobi_x(u):
        return scale * u / scale

    def part(call, k):
        return lambda u: call(u)[k]

    return {
        "wp": [("wp", None, lambda u: wz.wp(lat, u), None)],
        "wp_prime": [("wp_prime", None, lambda u: wz.wp_prime(lat, u), None)],
        "zeta_w": [("zeta", None, lambda u: wz.zeta_w(lat, u), None)],
        "sigma": [("sigma", None, lambda u: wz.sigma(lat, u), None)],
        "sigma_aux": [(f"sigma{k}", None, lambda u, k=k: wz.sigma_aux(lat, k, u), None) for k in (1, 2, 3)],
        "zeta_aux": [
            (f"zeta{k}", r, lambda u, k=k, r=r: wz.zeta_aux(lat, k, u, r), None)
            for k in (1, 2, 3) for r in wz.ZetaRoute
        ],
        "delta": [
            (f"delta{k}", r, lambda u, k=k, r=r: wz.delta(lat, k, u, r), None)
            for k in (1, 2, 3) for r in wz.DeltaRoute
        ],
        "delta2": [
            (f"delta{i}{j}", r, lambda u, i=i, j=j, r=r: wz.delta2(lat, i, j, u, r), None)
            for i, j in CYCLIC for r in wz.DeltaRoute
        ],
        "delta_prime": [(f"delta{k}_prime", None, lambda u, k=k: wz.delta_prime(lat, k, u), None) for k in (1, 2, 3)],
        "delta2_prime": [
            (f"delta{i}{j}_prime", None, lambda u, i=i, j=j: wz.delta2_prime(lat, i, j, u), None) for i, j in CYCLIC
        ],
        "sn_cn_dn": [
            (name, None, part(lambda u: wz.sn_cn_dn(wz.jacobi_params(lat), scale * u), k), jacobi_x)
            for k, name in enumerate(("sn", "cn", "dn"))
        ],
        "jacobi_E_Z": [
            (name, None, part(lambda u: wz.jacobi_E_Z(lat, u), k), None) for k, name in enumerate(("E", "Z"))
        ],
        "jacobi_E_Z_Pi": [
            (name, None, part(lambda u: wz.jacobi_E_Z_Pi(lat, u, PI_A), k), None)
            for k, name in enumerate(("E", "Z", "Pi"))
        ],
    }


def _outcome(f):
    """What f() gives: its EvalResult, or a value as a Finite one, with the
    value's floats as their bits; or the type of the WeierzetaError raised."""
    try:
        res = f()
    except WeierzetaError as exc:
        return type(exc)
    if not isinstance(res, wz.EvalResult):
        res = wz.EvalResult(res, wz.Status.FINITE)
    value = (res.value.real.hex(), res.value.imag.hex()) if res.is_finite else None
    return value, res.status, res.pole


def _points(lat) -> list:
    """A regular point and one next to each half-period coset, well inside
    the pole radius."""
    step = 1e-9 * lat.min_period * (1 + 0.7j)
    return [0.21 * lat.omega1 + 0.13 * lat.omega3] + [lat.offsets[k] + step for k in range(4)]


LATTICES = {"generic": make_lattice("generic"), "8i": build_lattice(0.5, 4j)}


def test_public_functions_are_table_entries_or_exempt():
    functions = {name for name in wz._HOME if inspect.isfunction(getattr(wz, name))}
    covered = set(_covered(LATTICES["generic"]))
    assert not (covered & EXEMPT or covered & NOT_EVALUATIONS or EXEMPT & NOT_EVALUATIONS)
    assert covered | EXEMPT | NOT_EVALUATIONS == functions
    # ...and every entry on every route is some public evaluator's, but for
    # the table-only entries.
    reached = {(e, r) for cases in _covered(LATTICES["generic"]).values() for e, r, _, _ in cases}
    assert not {e for e, _ in reached} & TABLE_ONLY
    assert reached | {(e, None) for e in TABLE_ONLY} == {
        (name, r) for name, f in FUNCTIONS.items() for r in f.routes or (None,)
    }


@pytest.mark.parametrize("lattice", list(LATTICES))
@pytest.mark.parametrize("public", sorted(_covered(LATTICES["generic"])))
def test_table_entry_matches_the_public_function(lattice, public):
    lat = LATTICES[lattice]
    for entry, route, call, at in _covered(lat)[public]:
        run = FUNCTIONS[entry].run
        for u in _points(lat):
            x = at(u) if at else u
            got = _outcome(lambda: run(None, locate(lat, x, DEFAULT_CONFIG), PI_A, route))
            want = _outcome(lambda: call(u))
            if want is PoleProximityError:
                # The public function raises where the entry reports the pole.
                assert got[1] is not wz.Status.FINITE, (entry, route, u)
            else:
                assert got == want, (entry, route, u)


def test_suite_reaches_no_kernel_past_the_table():
    from weierzeta import verify

    assert not {"_delta_prime", "_delta2_prime", "_zeta_aux", "_QSERIES"} & set(vars(verify))


@pytest.mark.parametrize("height", [300, 600, 850])
def test_every_entry_on_a_very_tall_cell_is_finite_a_pole_or_typed(height):
    # On cells with Im(tau) in the hundreds, exp(+-i*pi*u/omega1) and the
    # theta pass's cos x leave the float range; each entry on each route,
    # at six seeded points across the cell and two near its top and bottom
    # edges, returns a Finite or pole result, or raises a WeierzetaError
    # (ValueOverflow for a term past the float range), never an untyped error.
    lat = build_lattice(0.5, 0.5j * height)
    rng = random.Random(height)
    pts = [(2 * rng.random() - 1) * lat.omega1 + (2 * rng.random() - 1) * lat.omega3 for _ in range(6)]
    pts += [-0.82 * lat.omega1 - 0.94 * lat.omega3, -0.54 * lat.omega1 + 0.89 * lat.omega3]
    a = 0.2 * lat.omega1 + 0.1 * lat.omega3
    for name, f in FUNCTIONS.items():
        for route in f.routes or (None,):
            for u in pts:
                try:
                    res = f.run(None, locate(lat, u, DEFAULT_CONFIG), a, route)
                except WeierzetaError:
                    continue
                assert isinstance(res.status, wz.Status), (name, route, u)
