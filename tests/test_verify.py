"""Suite runner: determinism, registry contract, reporting, residual scaling."""

import json
import math
import os
import statistics
import subprocess
import sys
import weakref
from collections import Counter

import pytest

import weierzeta

from weierzeta import (
    IdentitySpec,
    SeriesConfig,
    build_lattice,
    default_suite,
    report_to_json,
    reports_to_json,
    run_suite,
)
from weierzeta import constants, jacobi, lattice, theta
from weierzeta.cli import main
from weierzeta.errors import PoleProximityError, SuiteConfigError
from weierzeta.functions import FUNCTIONS, Function
from weierzeta.verify import _Ctx, _side

from conftest import count_calls, rebind



def test_empty_suite_gives_empty_reports(generic_lat):
    assert run_suite(generic_lat, (), n=5, seed=1) == []


def test_registry_contract():
    suite = default_suite()
    names = [s.name for s in suite]
    assert len(names) == len(set(names))
    assert len(suite) >= 30
    assert "eq14_delta2_times_delta_constant" in names
    exp = [n for n in names if n.startswith("prop23_exp_form_zeta")]
    cos = [n for n in names if n.startswith("prop23_cos_form_zeta")]
    assert len(exp) == 3 and len(cos) == 3
    fs = next(s for s in suite if s.name == "frobenius_stickelberger")
    assert fs.arity == 2


def test_mini_suite_passes(generic_lat):
    suite = [
        s
        for s in default_suite()
        if s.name
        in (
            "eq4_delta_product_12",
            "eq5_wp_prime_triple_product",
            "eq14_delta2_times_delta_constant",
        )
    ]
    assert len(suite) == 3
    reports = run_suite(generic_lat, suite, n=100, seed=7)
    assert all(r.passed for r in reports)
    assert all(r.max_rel <= 1e-9 for r in reports)


def test_same_seed_identical_reports(generic_lat):
    suite = default_suite()[:6]
    a = run_suite(generic_lat, suite, n=10, seed=99)
    b = run_suite(generic_lat, suite, n=10, seed=99)
    assert json.dumps(reports_to_json(a)) == json.dumps(reports_to_json(b))
    c = run_suite(generic_lat, suite, n=10, seed=100)
    assert json.dumps(reports_to_json(a)) != json.dumps(reports_to_json(c))


def test_unknown_evaluator_rejected(generic_lat):
    bogus = IdentitySpec("nope", "no_such_lhs", "wp")
    with pytest.raises(SuiteConfigError):
        run_suite(generic_lat, [bogus], n=2, seed=0)
    bogus2 = IdentitySpec("nope2", "wp", "wp", arity=3)
    with pytest.raises(SuiteConfigError):
        run_suite(generic_lat, [bogus2], n=2, seed=0)
    for token in ("w9", "sum:w9", "diff:", "prod:w1", "sum:diff:w1"):
        bogus3 = IdentitySpec("nope3", "wp", "wp", exclusions=(token,))
        with pytest.raises(SuiteConfigError):
            run_suite(generic_lat, [bogus3], n=2, seed=0)


@pytest.mark.parametrize(
    "bad",
    [
        IdentitySpec("bad", "no_such_function", "wp"),
        IdentitySpec("bad", "wp", "wp:theta"),
        IdentitySpec("bad", "wp", 3.0),
        IdentitySpec("bad", "wp", "wp", arity=3),
        IdentitySpec("bad", "wp", "wp", arity=1.0),
        IdentitySpec("bad", lambda c, z, w: c("wp", z), "wp", arity=2),
        IdentitySpec("bad", "wp", "wp", exclusions=("w4",)),
        IdentitySpec("bad", "wp", "wp", tol=-1.0),
        IdentitySpec("bad", "wp", "wp", tol=math.nan),
        IdentitySpec("bad", "wp", "wp", tol=math.inf),
        IdentitySpec("bad", "wp", "wp", tol="1e-9"),
        IdentitySpec("bad", lambda c, u: c("wp", u), lambda c, z, w: c("wp", z), arity=2),
        IdentitySpec("bad", lambda c, z, w: c("wp", z), lambda c, z, w: c("wp", w)),
        IdentitySpec("bad", "wp", lambda c: c("wp", 0.1)),
    ],
)
def test_malformed_spec_refused_before_any_sample(generic_lat, bad):
    # The whole suite is checked first, so a bad spec after a good one is
    # refused, naming itself, before the good one's side is ever called.
    calls = []

    def probe(c, u):
        calls.append(u)
        return c("wp", u)

    good = IdentitySpec("good", probe, "wp", exclusions=("0",))
    with pytest.raises(SuiteConfigError, match="^bad: "):
        run_suite(generic_lat, [good, bad], n=2, seed=0)
    assert calls == []


def test_sides_are_checked_by_their_required_positional_parameters(generic_lat):
    # Defaults bind a side's captured values and are not counted, a side
    # taking *args accepts any arity, and a callable that is not a plain
    # function is called unchecked.
    class Side:
        def __call__(self, c, u):
            return c("wp", u)

    specs = [
        IdentitySpec(
            "defaults", lambda c, u, k=2: c("wp", u) - c.e(k), lambda c, u, k=2: c("wp", u) - c.e(k), exclusions=("0",)
        ),
        IdentitySpec("star", lambda c, *pts: c("wp", pts[0]), "wp", exclusions=("0",)),
        IdentitySpec("object", Side(), "wp", exclusions=("0",)),
        IdentitySpec("pair", lambda c, *pts: c("wp", pts[0]), lambda c, z, w=None: c("wp", z), arity=2),
    ]
    with pytest.raises(SuiteConfigError, match=r"^pair: the rhs side requires 2 positional parameters, not 1 \+ 2$"):
        run_suite(generic_lat, specs, n=2, seed=0)
    reports = run_suite(generic_lat, specs[:3], n=2, seed=0)
    assert [r.passed for r in reports] == [True] * 3


@pytest.mark.parametrize(
    "kwargs", [{"n": 2.5}, {"n": "3"}, {"n": None}, {"seed": "x"}, {"seed": 1.5}, {"seed": None}]
)
def test_n_and_seed_must_be_integers(generic_lat, kwargs):
    spec = IdentitySpec("wp_even", lambda c, u: c("wp", -u), "wp", exclusions=("0",))
    with pytest.raises(SuiteConfigError, match="must be integers"):
        run_suite(generic_lat, [spec], **{"n": 2, "seed": 0, **kwargs})


class _Index:
    """An integer by __index__ alone."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_n_and_seed_are_read_by_their_index(generic_lat):
    spec = IdentitySpec("wp_even", lambda c, u: c("wp", -u), "wp", exclusions=("0",))
    want = reports_to_json(run_suite(generic_lat, [spec], n=3, seed=5))
    assert reports_to_json(run_suite(generic_lat, [spec], n=_Index(3), seed=_Index(5))) == want


def test_report_json_schema(generic_lat):
    suite = [s for s in default_suite() if s.name == "eq3_delta1_wp_quotient"]
    rep = run_suite(generic_lat, suite, n=4, seed=3)[0]
    payload = report_to_json(rep)
    assert set(payload) == {"name", "samples", "maxRel", "meanRel", "passed", "failures"}
    assert payload["samples"] == 4
    assert payload["passed"] is True
    assert payload["failures"] == []


def test_failures_record_points(generic_lat):
    # An intentionally impossible tolerance must report failing points.
    spec = IdentitySpec("impossible", "wp", "zeta", tol=1e-12, exclusions=("0",))
    rep = run_suite(generic_lat, [spec], n=3, seed=1)[0]
    assert not rep.passed
    assert len(rep.failures) == 3
    payload = report_to_json(rep)
    assert len(payload["failures"][0]["point"]) == 2


def test_residual_scaling_with_truncation_tolerance():
    # In the truncation-dominated regime (large nome), tightening abs_tol by
    # 10x shrinks the median residual by at least 5x per decade; asserted
    # over two-decade windows to smooth out step noise in the term count.
    tau = 1j * (-math.log(0.8) / math.pi)
    lat = build_lattice(0.5, 0.5 * tau)
    theta_idents = [s for s in default_suite() if s.name.startswith("prop24")]
    med = {}
    for tol in (1e-6, 1e-7, 1e-8, 1e-9):
        cfg = SeriesConfig(abs_tol=tol, rel_tol=0.0, max_terms=96)
        reports = run_suite(lat, theta_idents, n=40, seed=5, cfg=cfg)
        med[tol] = statistics.median([r.mean_rel for r in reports])
    assert med[1e-6] / med[1e-8] >= 25
    assert med[1e-7] / med[1e-9] >= 25


def test_two_point_identities_sample_two_points(generic_lat):
    suite = [s for s in default_suite() if s.arity == 2]
    assert suite
    reports = run_suite(generic_lat, suite, n=25, seed=11)
    assert all(r.passed for r in reports)


def test_evaluators_used_and_sides_resolve(capsys, generic_lat):
    # Every side is a table function on a route it accepts, or a callable.
    suite = default_suite()
    names = [s.name for s in suite]
    assert len(names) == len(set(names))
    ctx = _Ctx(generic_lat, theta.DEFAULT_CONFIG)
    for s in suite:
        for side in (s.lhs, s.rhs):
            if isinstance(side, str):
                fn, _, route = side.partition(":")
                FUNCTIONS[fn].route(route or None)
            else:
                assert callable(side), (s.name, side)
            assert callable(_side(ctx, s, side))
    with pytest.raises(SuiteConfigError):
        _side(ctx, IdentitySpec("bad_route", "wp:theta", "wp"), "wp:theta")
    assert main(["eval", "--list-fns"]) == 0
    assert capsys.readouterr().out.split() == sorted(FUNCTIONS)


@pytest.mark.parametrize(
    "name, calls",
    [
        ("cor212_row_r1", 1),
        ("cor212_row_r2", 1),
        ("cor212_row_r3", 1),
        ("thm211_squared_ds", 1),
        ("thm211_squared_cs", 1),
        ("thm211_squared_snK", 1),
        ("thm213_Pi_integrand", 2),
    ],
)
def test_jacobi_sides_compute_sn_cn_dn_once_per_point(monkeypatch, generic_lat, name, calls):
    counted = count_calls(monkeypatch, jacobi._sn_cn_dn)
    spec = next(s for s in default_suite() if s.name == name)
    (rep,) = run_suite(generic_lat, [spec], n=10, seed=5)
    assert rep.passed
    assert len(counted) == 10 * calls


def _raises_zero_division(c, u):
    return 1 / 0


def _at_pole(c, u):
    return c("wp", 0j)


def _too_far(c, u):
    # Locating the point fails inside the side, so it fails its identity.
    return c("wp", 1e300 + 0j)


@pytest.mark.parametrize(
    "evaluator, error",
    [(_raises_zero_division, "ZeroDivisionError"), (_at_pole, "PoleProximityError"), (_too_far, "ValueOverflow")],
)
def test_raising_identity_fails_alone(monkeypatch, capsys, generic_lat, evaluator, error):
    good = IdentitySpec("good", lambda c, u: c("wp", -u), "wp", exclusions=("0",))
    bad = IdentitySpec("bad", "wp", evaluator, exclusions=("0",))
    reports = run_suite(generic_lat, [good, bad, good], n=3, seed=2)
    assert [r.passed for r in reports] == [True, False, True]
    failed = report_to_json(reports[1])
    assert failed["error"] == error
    assert failed["samples"] == 0 and failed["maxRel"] is None and failed["meanRel"] is None
    assert [f["residual"] for f in failed["failures"]] == [None]
    assert all("error" not in report_to_json(r) for r in (reports[0], reports[2]))

    # Through the command line: every identity still reports, exit code 1.
    monkeypatch.setattr("weierzeta.verify.default_suite", lambda: (good, bad))
    assert main(["verify", "--n", "3", "--seed", "2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in payload] == ["good", "bad"]
    assert payload[1]["error"] == error and "error" not in payload[0]


def _refuse_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


def test_nan_residual_fails_and_stays_json(monkeypatch, capsys, generic_lat):
    good = IdentitySpec("good", lambda c, u: c("wp", -u), "wp", exclusions=("0",))
    bad = IdentitySpec("bad", "wp", lambda c, u: complex("nan"), exclusions=("0",))
    (rep,) = run_suite(generic_lat, [bad], n=3, seed=2)
    assert not rep.passed and len(rep.failures) == 3
    out = report_to_json(rep)
    assert out["meanRel"] is None
    assert [f["residual"] for f in out["failures"]] == [None] * 3

    monkeypatch.setattr("weierzeta.verify.default_suite", lambda: (good, bad))
    assert main(["verify", "--n", "3", "--seed", "2"]) == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert [r["passed"] for r in payload] == [True, False]
    assert payload[1]["maxRel"] is None and payload[1]["meanRel"] is None


def test_run_suite_resolves_each_route_once(monkeypatch, generic_lat):
    # Each (function, route name) the suite evaluates is resolved once per
    # run, by the sides and the compound evaluators alike; the run used to
    # resolve one at every memo miss, 3,772 times on generic at n=20.
    calls = []
    route = Function.route

    def counted(self, name):
        calls.append((self, name))
        return route(self, name)

    monkeypatch.setattr(Function, "route", counted)
    run_suite(generic_lat, default_suite(), n=20, seed=12345)
    assert calls and len(calls) == len(set(calls))


def test_memo_evaluates_each_side_value_once(monkeypatch, generic_lat):
    # wp_factored reads wp(u) three times per sample, wp_cubic twice.
    count = 0
    wp = FUNCTIONS["wp"]

    def counted(*args):
        nonlocal count
        count += 1
        return wp.run(*args)

    monkeypatch.setitem(FUNCTIONS, "wp", wp._replace(run=counted))
    for name in ("wp_diffeq_factored", "wp_diffeq_invariants"):
        count = 0
        spec = next(s for s in default_suite() if s.name == name)
        (rep,) = run_suite(generic_lat, [spec], n=10, seed=5)
        assert rep.passed and count == 10


def test_memo_holds_one_identity_at_a_time(generic_lat):
    seen, points, samples = [], [], []

    def probe(c, u):
        seen.append(set(c.memo))
        samples.append(u)
        points.append(set(c.points))
        return c("wp", u)

    first = next(s for s in default_suite() if s.name == "wp_diffeq_factored")
    spec = IdentitySpec("probe", probe, "wp", exclusions=("0",))
    reports = run_suite(generic_lat, [first, spec], n=4, seed=1)
    assert all(r.passed for r in reports)
    assert seen[0] == set()  # nothing of wp_diffeq_factored is left
    assert all(len(keys) == i and all(k[:2] == ("wp", None) for k in keys) for i, keys in enumerate(seen))
    # The located points go with the memo: only the probe's samples so far,
    # each seeded by the sampler before its sides run.
    assert points == [set(samples[: i + 1]) for i in range(len(samples))]
    assert reports[1].max_rel == 0.0  # both sides read the one stored value


def test_memo_keeps_the_report_of_a_raising_side(generic_lat):
    points = []

    def late_pole(c, u):
        points.append(u)
        value = c("wp", u)
        if len(points) == 3:
            for _ in range(2):  # a call that raised stored nothing: it raises again
                with pytest.raises(PoleProximityError):
                    c("wp", 0j)
            return c("wp", 0j)
        return value

    spec = IdentitySpec("late", "wp", late_pole, exclusions=("0",))
    (rep,) = run_suite(generic_lat, [spec], n=5, seed=3)
    assert rep.error == "PoleProximityError" and not rep.passed
    assert rep.samples == 2 and rep.max_rel == 0.0
    assert rep.failures == (((points[2],), None),)


@pytest.mark.parametrize(
    "name",
    [
        "eq4_delta_product_12",
        "eq9_dlog_delta1",
        "wp_diffeq_factored",
        "thm26_delta1_sigma_4factor",
        "cor212_row_r1",
        "thm211_squared_ns",
        "thm213_Pi_integrand",
        "thm213_E_derivative",
    ],
)
def test_suite_locates_each_point_once_and_sums_it_once_per_kind(monkeypatch, generic_lat, name):
    # Every side of an identity reads its points from the one located point
    # of each: the sample points, as sampled, and the half-periods and
    # shifted points the sigma forms read, which recur at every sample.  A
    # point's theta pass is summed at most once without and once with the
    # derivatives, and never without them after a pass with them.
    constants(generic_lat)
    located = count_calls(monkeypatch, lattice.locate)
    passes = count_calls(monkeypatch, theta._theta4)
    spec = next(s for s in default_suite() if s.name == name)
    (rep,) = run_suite(generic_lat, [spec], n=10, seed=12345)
    assert rep.passed and rep.samples == 10
    points = Counter(args[1] for args in located)
    assert len(points) >= 10 and set(points.values()) == {1}
    kinds = [(args[0], bool(len(args) > 4 and args[4])) for args in passes]
    assert len(set(kinds)) == len(kinds)
    for i, (v, deriv) in enumerate(kinds):
        assert deriv or (v, True) not in kinds[:i], v


def test_suite_keeps_no_located_point(monkeypatch, generic_lat):
    made = []
    locate = lattice.locate

    def tracked(*args):
        p = locate(*args)
        made.append(weakref.ref(p))
        return p

    rebind(monkeypatch, locate, tracked)
    reports = run_suite(generic_lat, default_suite(), n=2, seed=4)
    assert all(r.passed for r in reports)
    assert len(made) > 2 * len(reports)
    assert [r for r in made if r() is not None] == []


def _fresh_verify(args: list) -> list:
    """The JSON reports of `verify` in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(weierzeta.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "weierzeta.cli", "verify", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_runs_on_one_lattice_are_fresh_runs(generic_lat):
    # A located point keeps a pass summed under its run's SeriesConfig, and
    # none outlives its run: runs on one lattice under two configs, one after
    # the other, give what each gives in a fresh interpreter.
    args = ["--tau", "0.3,1.1", "--n", "5", "--seed", "8", "--only", "prop24_*"]
    loose = ["--abs-tol", "1e-6", "--rel-tol", "0"]
    want = {"default": _fresh_verify(args), "loose": _fresh_verify(args + loose)}
    assert want["default"] != want["loose"]
    suite = [s for s in default_suite() if s.name.startswith("prop24_")]
    cfgs = {"default": SeriesConfig(), "loose": SeriesConfig(abs_tol=1e-6, rel_tol=0.0)}
    for name in ("loose", "default", "loose"):
        reports = run_suite(generic_lat, suite, n=5, seed=8, cfg=cfgs[name])
        assert reports_to_json(reports) == want[name], name
