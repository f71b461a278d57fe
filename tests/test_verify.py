"""Suite runner: determinism, registry contract, reporting, residual scaling."""

import json
import math
import statistics

import pytest

from weierzeta import (
    IdentitySpec,
    SeriesConfig,
    build_lattice,
    default_suite,
    report_to_json,
    reports_to_json,
    run_suite,
)
from weierzeta import verify
from weierzeta.cli import main
from weierzeta.errors import SuiteConfigError
from weierzeta.verify import EVALUATORS, FUNCTIONS, _side



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


def test_evaluators_used_and_sides_resolve(capsys):
    suite = default_suite()
    sides = {name for s in suite for name in (s.lhs, s.rhs)}
    assert set(EVALUATORS) <= sides
    assert not set(EVALUATORS) & set(FUNCTIONS)
    for s in suite:
        assert callable(_side(s, s.lhs)) and callable(_side(s, s.rhs))
    with pytest.raises(SuiteConfigError):
        _side(IdentitySpec("bad_route", "wp:theta", "wp"), "wp:theta")
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
    count = 0
    sn_cn_dn = verify.sn_cn_dn

    def counted(*args):
        nonlocal count
        count += 1
        return sn_cn_dn(*args)

    monkeypatch.setattr(verify, "sn_cn_dn", counted)
    spec = next(s for s in default_suite() if s.name == name)
    (rep,) = run_suite(generic_lat, [spec], n=10, seed=5)
    assert rep.passed
    assert count == 10 * calls


def _raises_zero_division(c, u):
    return 1 / 0


def _at_pole(c, u):
    return c("wp", 0j)


@pytest.mark.parametrize(
    "evaluator, error",
    [(_raises_zero_division, "ZeroDivisionError"), (_at_pole, "PoleProximityError")],
)
def test_raising_identity_fails_alone(monkeypatch, capsys, generic_lat, evaluator, error):
    monkeypatch.setitem(EVALUATORS, "raises", evaluator)
    good = IdentitySpec("good", "wp_neg", "wp", exclusions=("0",))
    bad = IdentitySpec("bad", "wp", "raises", exclusions=("0",))
    reports = run_suite(generic_lat, [good, bad, good], n=3, seed=2)
    assert [r.passed for r in reports] == [True, False, True]
    failed = report_to_json(reports[1])
    assert failed["error"] == error
    assert failed["samples"] == 0 and failed["maxRel"] is None and failed["meanRel"] is None
    assert [f["residual"] for f in failed["failures"]] == [None]
    assert all("error" not in report_to_json(r) for r in (reports[0], reports[2]))

    # Through the command line: every identity still reports, exit code 1.
    monkeypatch.setattr("weierzeta.cli.default_suite", lambda: (good, bad))
    assert main(["verify", "--n", "3", "--seed", "2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in payload] == ["good", "bad"]
    assert payload[1]["error"] == error and "error" not in payload[0]


def _refuse_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


def test_nan_residual_fails_and_stays_json(monkeypatch, capsys, generic_lat):
    monkeypatch.setitem(EVALUATORS, "nan_side", lambda c, u: complex("nan"))
    good = IdentitySpec("good", "wp_neg", "wp", exclusions=("0",))
    bad = IdentitySpec("bad", "wp", "nan_side", exclusions=("0",))
    (rep,) = run_suite(generic_lat, [bad], n=3, seed=2)
    assert not rep.passed and len(rep.failures) == 3
    out = report_to_json(rep)
    assert out["meanRel"] is None
    assert [f["residual"] for f in out["failures"]] == [None] * 3

    monkeypatch.setattr("weierzeta.cli.default_suite", lambda: (good, bad))
    assert main(["verify", "--n", "3", "--seed", "2"]) == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert [r["passed"] for r in payload] == [True, False]
    assert payload[1]["maxRel"] is None and payload[1]["meanRel"] is None
