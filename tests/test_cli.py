"""Command-line interface: flags, formats, exit codes, determinism."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import weierzeta
from weierzeta import jacobi
from weierzeta import cli
from weierzeta.cli import main, parse_complex
from weierzeta.functions import FUNCTIONS, Function
from weierzeta.verify import default_suite
from weierzeta import build_lattice
from weierzeta.lattice import locate
from weierzeta.theta import DEFAULT_CONFIG


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_parse_complex_forms():
    lat = build_lattice(0.5, 0.5j)
    assert parse_complex("0.25,-1.5") == 0.25 - 1.5j
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("w2", lat) == lat.omega2
    assert parse_complex("omega3", lat) == lat.omega3
    assert parse_complex("ω1", lat) == lat.omega1
    with pytest.raises(ValueError):
        parse_complex("1,2,3")
    with pytest.raises(ValueError):
        parse_complex("w1")


def test_eval_delta1_at_half_period_keyword():
    rc, out, _ = run_cli(["eval", "--fn", "delta1", "--u", "w2", "--tau", "0.3,1.1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["status"] == "Finite"
    assert abs(complex(*payload["value"])) < 1e-10


def test_eval_zeta1_at_origin():
    rc, out, _ = run_cli(["eval", "--fn", "zeta1", "--u", "0,0"])
    assert rc == 0
    payload = json.loads(out)
    assert abs(complex(*payload["value"])) < 1e-12


def test_eval_wp_at_pole_exits_3():
    rc, out, _ = run_cli(["eval", "--fn", "wp", "--u", "0,0"])
    assert rc == 3
    payload = json.loads(out)
    assert payload["status"] == "AtPole"
    assert payload["value"] is None


def test_eval_route_flag():
    base = ["eval", "--fn", "zeta2", "--u", "0.21,0.05", "--tau", "0.3,1.1"]
    values = {}
    for route in ("shift", "theta", "qseries", "partialfrac"):
        rc, out, _ = run_cli(base + ["--route", route])
        assert rc == 0
        values[route] = complex(*json.loads(out)["value"])
    assert abs(values["shift"] - values["theta"]) < 1e-10
    assert abs(values["shift"] - values["partialfrac"]) < 1e-4


def test_eval_usage_errors():
    rc, _, err = run_cli(["eval", "--fn", "nosuch", "--u", "0,0"])
    assert rc == 2 and "unknown function" in err
    rc, _, _ = run_cli(["eval", "--u", "0,0"])
    assert rc == 2
    rc, _, err = run_cli(["eval", "--fn", "Pi", "--u", "0.2,0"])
    assert rc == 2 and "--a" in err
    rc, _, _ = run_cli(["eval", "--fn", "wp", "--u", "0.2,0", "--tau", "0,-1"])
    assert rc == 2  # invalid lattice


def test_eval_csv_format():
    rc, out, _ = run_cli(
        ["eval", "--fn", "sigma", "--u", "0.3,0.1", "--format", "csv"]
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "re_value,im_value,status"
    assert lines[1].endswith(",Finite")


def test_list_fns_contains_documented_registry():
    rc, out, _ = run_cli(["eval", "--list-fns"])
    assert rc == 0
    names = set(out.split())
    expected = {
        "wp", "wp_prime", "zeta", "sigma",
        "sigma1", "sigma2", "sigma3",
        "zeta1", "zeta2", "zeta3",
        "zeta1_cos", "zeta2_cos", "zeta3_cos",
        "delta1", "delta2", "delta3",
        "delta12", "delta23", "delta31",
        "delta1_prime", "delta2_prime", "delta3_prime",
        "delta12_prime", "delta23_prime", "delta31_prime",
        "sn", "cn", "dn", "E", "Z", "Pi",
    }
    assert expected <= names
    assert set(FUNCTIONS) == names


def test_table_single_point():
    rc, out, _ = run_cli(
        ["table", "--fn", "wp", "--re", "0.2:0.2:1", "--im", "0.1:0.1:1", "--format", "csv"]
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re_u,im_u,re_value,im_value,status"
    assert len(lines) == 2
    assert lines[1].endswith("Finite")


def test_table_grid_with_pole_rows():
    rc, out, _ = run_cli(
        ["table", "--fn", "wp", "--re", "0:0.4:3", "--im", "0:0:1", "--format", "csv"]
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    # the u = 0 row carries an empty value and AtPole status
    assert lines[1].split(",")[2:] == ["", "", "AtPole"]
    assert lines[2].endswith("Finite")


def test_table_deterministic_bytes():
    args = ["table", "--fn", "sigma", "--re", "0:0.4:5", "--im", "0:0.3:4"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


def test_table_malformed_grid():
    rc, _, err = run_cli(["table", "--fn", "wp", "--re", "0:1", "--im", "0:0:1"])
    assert rc == 2


@pytest.mark.parametrize(
    "axis, spec",
    [("re", "nan:1:3"), ("re", "-1e308:1e308:3"), ("im", "0:inf:1"), ("im", "0:1e400:2")],
    ids=["nan-start", "step-overflows", "infinite-stop", "stop-overflows"],
)
def test_table_refuses_a_non_finite_axis(monkeypatch, axis, spec):
    # Refused before any point runs, naming the axis: a point used to be
    # blamed ("the cell coordinates of u = (nan+0.1j) are too large").
    def no_point(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setitem(FUNCTIONS, "wp", FUNCTIONS["wp"]._replace(run=no_point))
    axes = {"re": "0:0.5:3", "im": "0.1:0.2:2", axis: spec}
    rc, out, err = run_cli(["table", "--fn", "wp", f"--re={axes['re']}", f"--im={axes['im']}"])
    assert rc == 2 and out == ""
    assert err == f"table: axis {spec!r} is not finite\n"


def test_table_refuses_a_grid_past_the_cap_before_any_point(monkeypatch):
    monkeypatch.setattr(cli, "MAX_TABLE_POINTS", 6)
    rc, out, _ = run_cli(["table", "--fn", "wp", "--re=0:0.5:3", "--im=0.1:0.2:2", "--format", "csv"])
    assert rc == 0 and len(out.splitlines()) == 7

    def no_point(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setitem(FUNCTIONS, "wp", FUNCTIONS["wp"]._replace(run=no_point))
    rc, out, err = run_cli(["table", "--fn", "wp", "--re=0:0.5:7", "--im=0.1:0.2:1"])
    assert rc == 2 and out == ""
    assert err == "table: a grid of 7 x 1 points is more than MAX_TABLE_POINTS = 6\n"


def test_oversized_table_refuses_in_bounded_memory():
    # 2e8 points on one axis: without the cap the axis alone is 1.6 GB of
    # floats, and under a 1 GiB address-space limit the child died with an
    # untyped MemoryError.  The counts are checked before either axis is built.
    resource = pytest.importorskip("resource")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(weierzeta.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "weierzeta.cli", "table", "--fn", "wp", "--re=0:1:200000000", "--im=0.5:1:1",
         "--format", "csv"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"table: a grid of 200000000 x 1 points is more than MAX_TABLE_POINTS = {2**20}\n"


def test_table_of_400_by_400_points():
    rc, out, _ = run_cli(["table", "--fn", "wp", "--re=0:1:400", "--im=0.01:1.1:400", "--format", "csv"])
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 1 + 400 * 400
    assert lines[-1].startswith("1.0,1.1,") and lines[-1].endswith(",Finite")


def test_constants_square_lattice():
    rc, out, _ = run_cli(["constants", "--tau", "0,1"])
    assert rc == 0
    payload = json.loads(out)
    g2 = complex(*payload["g2"])
    g3 = complex(*payload["g3"])
    assert abs(g3) <= 1e-12 * abs(g2)
    disc = complex(*payload["disc"])
    assert abs(disc - (g2**3 - 27 * g3**2)) <= 1e-9 * abs(g2) ** 3


def test_constants_invalid_lattice():
    rc, _, _ = run_cli(["constants", "--tau", "1,0"])
    assert rc == 2
    rc, _, _ = run_cli(["constants", "--tau", "0,1", "--omega3", "0,0.5"])
    assert rc == 2  # both --tau and --omega3


def test_verify_filter_and_exit_codes():
    rc, out, _ = run_cli(
        ["verify", "--n", "5", "--seed", "3", "--only", "eq14_*"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["name"] == "eq14_delta2_times_delta_constant"
    assert payload[0]["passed"] is True
    rc, _, err = run_cli(["verify", "--only", "zzz_no_match_*"])
    assert rc == 2 and "no identity" in err


def test_verify_same_seed_identical_bytes():
    args = ["verify", "--n", "4", "--seed", "11", "--only", "prop24_*"]
    rc1, out1, _ = run_cli(args)
    rc2, out2, _ = run_cli(args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_max_terms_budget():
    # |q| large needs many terms; an 8-term budget must fail loudly
    tau_im = -math.log(0.8) / math.pi
    rc, _, err = run_cli(
        ["eval", "--fn", "zeta", "--u", "0.2,0.01", "--tau", f"0,{tau_im}", "--max-terms", "8"]
    )
    assert rc == 2


@pytest.mark.parametrize("command", ["eval", "table", "constants", "verify"])
@pytest.mark.parametrize("flag, value", [("--rel-tol", "inf"), ("--abs-tol", "nan"), ("--abs-tol", "-inf")])
def test_non_finite_tolerance_is_a_usage_error(command, flag, value):
    # --rel-tol inf printed a value 0.04 off with status Finite, and
    # --abs-tol nan was blamed on the series budget.
    argv = {"eval": ["eval", "--fn", "wp", "--u", "0.1"], "table": ["table", "--fn", "wp"] + GRID}
    rc, out, err = run_cli(argv.get(command, [command]) + [f"{flag}={value}"])
    assert rc == 2 and out == ""
    assert err.startswith("weierzeta: tolerances must be finite")


def test_precision_is_not_read_from_the_environment(monkeypatch):
    # The precision flags are the only way to set the series budget: a
    # malformed variable of the old names is ignored, not a traceback.
    monkeypatch.setenv("WEIERZETA_MAX_TERMS", "abc")
    rc, out, _ = run_cli(["eval", "--fn", "wp", "--u", "0.1,0.1"])
    assert rc == 0 and json.loads(out)["status"] == "Finite"


@pytest.mark.parametrize("command", ["verify", "constants"])
def test_format_only_where_honoured(command):
    rc, out, err = run_cli([command, "--format", "csv"])
    assert rc == 2 and out == "" and "--format" in err


def test_sigma_overflow_is_a_usage_error():
    rc, out, err = run_cli(["eval", "--fn", "sigma", "--u", "30.3,30.1", "--tau", "0,1"])
    assert rc == 2 and out == "" and "overflows" in err


@pytest.mark.parametrize("u", ["1e400,0", "nan,0", "0,-inf"])
def test_non_finite_point_is_a_usage_error(u):
    rc, out, err = run_cli(["eval", "--fn", "sigma", "--u", u])
    assert rc == 2 and out == "" and "not finite" in err


@pytest.mark.parametrize(
    "fn", [["wp"], ["sigma"], ["delta12"], ["sn"], ["E"], ["Pi", "--a", "0.1,0.05"]], ids=lambda f: f[0]
)
def test_point_past_the_translate_range_is_a_usage_error(fn):
    # A finite u whose cell coordinates round to an n with 2*n past the
    # float range; the message names u itself, not the Jacobi argument.
    rc, out, err = run_cli(["eval", "--fn", *fn, "--u", "1e308,0"])
    assert rc == 2 and out == "" and "too large" in err
    assert f"u = {complex(1e308, 0)!r}" in err


@pytest.mark.parametrize(
    "args",
    [["--u", "1e200,0"], ["--u", "1e300,0", "--tau", "1e10,0.1"]],
    ids=["default-lattice", "long-period"],
)
def test_far_point_is_a_usage_error_not_a_pole(args):
    # The floats near u are further apart than the periods, so the point
    # rounds onto a lattice point; that is no pole.
    rc, out, err = run_cli(["eval", "--fn", "wp", *args])
    assert rc == 2 and out == "" and "too large" in err


@pytest.mark.parametrize(
    "command",
    [["constants", "--omega1", "1e-155,0"], ["eval", "--fn", "wp", "--u", "0.1,0", "--omega1", "1e-160,0"]],
    ids=["constants", "eval"],
)
def test_tiny_half_period_is_a_usage_error(command):
    rc, out, err = run_cli(command)
    assert rc == 2 and out == "" and err.startswith("weierzeta: ") and "Traceback" not in err


@pytest.mark.parametrize("omega1", ["1e-30,0", "1e-80,0"])
def test_constants_refuse_invariants_beyond_float_range(omega1):
    # g2, g3 and disc scale as omega1^-4, -6 and -12: at 1e-30 disc
    # overflows, at 1e-80 g2 and g3 too, and JSON has no NaN or Infinity.
    rc, out, err = run_cli(["constants", "--omega1", omega1])
    assert rc == 2 and out == "" and "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("scale", [1e-30, 1e30])
def test_jacobi_functions_at_extreme_scale(scale):
    # The degeneracy test is scale-free: at 1e-30 its cube of g2 overflowed
    # (a traceback), and at 1e30 disc underflows to 0 (a valid lattice
    # refused).  sn(scale*u) does not depend on the scale of the lattice.
    rc, out, err = run_cli(["eval", "--fn", "sn", "--u", f"{0.1 * scale!r},0", "--omega1", f"{scale!r},0"])
    assert rc == 0, err
    rc, unit_out, _ = run_cli(["eval", "--fn", "sn", "--u", "0.1,0", "--omega1", "1,0"])
    got, want = (complex(*json.loads(s)["value"]) for s in (out, unit_out))
    assert abs(got - want) <= 1e-14 * abs(want)


def test_jacobi_overflow_names_the_callers_point():
    rc, out, err = run_cli(["eval", "--fn", "sn", "--u", "1e308,0"])
    assert rc == 2 and out == "" and "1e+308" in err and "inf" not in err


@pytest.mark.parametrize(
    "lattice", [["--omega1", "1e-300,0"], ["--tau", "1e-30,1e300"]], ids=["area-underflow", "q4-underflow"]
)
def test_extreme_scale_is_a_usage_error(lattice):
    rc, out, err = run_cli(["eval", "--fn", "wp", "--u", "0.1,0", *lattice])
    assert rc == 2 and out == "" and err.startswith("weierzeta: ")


@pytest.mark.parametrize(
    "fn", [["wp"], ["zeta2", "--route", "qseries"], ["delta12"], ["sn"]], ids=lambda f: f[0]
)
def test_table_rows_match_eval(fn):
    # A grid of the generic lattice through the origin, omega_1, omega_2 and
    # omega_3 + lattice points, so each function has pole rows; every row
    # must be what eval prints at its u (eval exits 3 at a pole, and sn's
    # pole has no value row at all).
    lat = ["--tau", "0.3,1.1"]
    rc, out, _ = run_cli(["table", "--fn", *fn, "--re=-0.65:0.65:27", "--im=-1.1:1.1:5",
                          "--format", "csv", *lat])
    assert rc == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 135
    poles = 0
    for row in rows:
        re_u, im_u, value = row.split(",", 2)
        rc, point, _ = run_cli(["eval", "--fn", *fn, f"--u={re_u},{im_u}", "--format", "csv", *lat])
        if value.endswith("Finite"):
            assert rc == 0 and point.splitlines()[1] == value, row
        else:
            poles += 1
            assert rc == 3 and point.splitlines()[1:] in ([value], []), row
    assert poles >= 2


def test_table_json_format():
    rc, out, _ = run_cli(["table", "--fn", "zeta", "--re", "0.1:0.3:3", "--im", "0.05:0.05:1"])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload) == 3
    assert payload[0]["status"] == "Finite"
    assert len(payload[0]["u"]) == 2 and len(payload[0]["value"]) == 2


def test_eval_with_explicit_omega3():
    rc, out, _ = run_cli(
        ["eval", "--fn", "wp", "--u", "0.2,0.1", "--omega1", "0.5,0", "--omega3", "0,0.5"]
    )
    assert rc == 0
    import cmath

    from weierzeta import build_lattice, wp

    ref = wp(build_lattice(0.5, 0.5j), 0.2 + 0.1j).value
    assert abs(complex(*json.loads(out)["value"]) - ref) < 1e-12 * abs(ref)


# The default lattice's omega3 is 0.15+0.55i: this grid point of
# `table --re=0:1:21 --im=0:1.1:3` lies within the pole radius of it.
NEAR_OMEGA3 = "0.15000000000000002,0.55"


@pytest.mark.parametrize("fn", [["sn"], ["E"], ["Pi", "--a", "0.1,0.05"]], ids=lambda f: f[0])
def test_jacobi_table_reports_a_near_pole_as_zeta3_does(fn):
    rows = []
    for f in (fn, ["zeta3"]):
        rc, out, _ = run_cli(["table", "--fn", *f, "--re=0:1:21", "--im=0:1.1:3", "--format", "csv"])
        assert rc == 0
        rows.append(next(r for r in out.splitlines() if r.startswith(NEAR_OMEGA3 + ",")))
    assert rows[0] == rows[1] == f"{NEAR_OMEGA3},,,NearPole"


def test_jacobi_eval_prints_a_near_pole_and_exits_3():
    rc, out, err = run_cli(["eval", "--fn", "cn", "--u", NEAR_OMEGA3])
    assert rc == 3 and err == ""
    assert json.loads(out) == {"value": None, "status": "NearPole"}


@pytest.mark.parametrize("name", ["sn", "cn", "dn", "E", "Z", "Pi"])
def test_jacobi_entries_report_the_status_of_zeta3(name):
    # At omega3, next to it and at a translate of it, each Jacobi entry
    # returns zeta3's status and pole, with the record handed in or looked
    # up, and raises nothing; so does Pi with its a there.
    lat = build_lattice(0.5, complex(0.3, 1.1) * 0.5)
    lc = weierzeta.constants(lat)
    zeta3, regular = FUNCTIONS["zeta3"], 0.1 + 0.05j
    w3 = lat.omega3
    for u in (w3, w3 + 1e-9 * lat.min_period * (1 + 0.7j), 2 * lat.omega1 + w3):
        want = zeta3.run(lc, locate(lat, u, DEFAULT_CONFIG), None, zeta3.route(None))
        assert not want.is_finite
        for x, a in [(u, regular)] + ([(regular, u)] if name == "Pi" else []):
            for record in (lc, None):
                got = FUNCTIONS[name].run(record, locate(lat, x, DEFAULT_CONFIG), a, None)
                assert (got.status, got.pole) == (want.status, want.pole), (u, x, a)


def test_eval_jacobi_layer_functions():
    for fn in ("sn", "cn", "dn", "E", "Z"):
        rc, out, _ = run_cli(["eval", "--fn", fn, "--u", "0.17,0.04", "--tau", "0,2"])
        assert rc == 0, fn
        assert json.loads(out)["status"] == "Finite"
    # sn at its pole coset exits 3, and so does Pi with a there
    rc, _, _ = run_cli(["eval", "--fn", "sn", "--u", "w3", "--tau", "0,2"])
    assert rc == 3
    rc, _, _ = run_cli(["eval", "--fn", "Pi", "--u", "0.1,0.05", "--a", "w3"])
    assert rc == 3


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_eval_rejects_route_not_in_table(name):
    # Functions without routes used to ignore --route and exit 0.
    argv = ["eval", "--fn", name, "--u", "0.1,0.1", "--a", "0.1,0.05", "--route", "bogus"]
    rc, out, err = run_cli(argv)
    assert rc == 2 and out == ""
    assert f"route 'bogus' not valid for {name!r}" in err


@pytest.mark.parametrize("command", ["eval", "table"])
@pytest.mark.parametrize("name", sorted(n for n, f in FUNCTIONS.items() if not f.needs_a))
def test_second_argument_refused_where_the_function_takes_none(command, name):
    # eval --fn wp --a 1,0 used to ignore --a and print a value.
    where = ["--u", "0.1,0.2"] if command == "eval" else ["--re", "0.1:0.2:2", "--im", "0.1:0.1:1"]
    rc, out, err = run_cli([command, "--fn", name, *where, "--a", "1,0"])
    assert rc == 2 and out == ""
    assert f"{command}: function {name!r} takes no --a" in err


def test_table_validates_route_before_evaluating():
    grid = ["--re", "0.1:0.2:2", "--im", "0.1:0.1:1"]
    rc, out, err = run_cli(["table", "--fn", "zeta1", "--route", "bogus"] + grid)
    assert rc == 2 and out == "" and "route 'bogus' not valid for 'zeta1'" in err
    rc, out, err = run_cli(["table", "--fn", "sn", "--route", "theta"] + grid)
    assert rc == 2 and out == "" and "not valid for 'sn'" in err
    rc, out, _ = run_cli(["table", "--fn", "zeta1", "--route", "shift", "--format", "csv"] + grid)
    assert rc == 0 and len(out.splitlines()) == 3


def test_table_pi_needs_a():
    grid = ["--re", "0.1:0.2:2", "--im", "0.05:0.05:1", "--format", "csv"]
    rc, out, err = run_cli(["table", "--fn", "Pi"] + grid)
    assert rc == 2 and out == "" and "--a" in err
    rc, out, _ = run_cli(["table", "--fn", "Pi", "--a", "0.1,0.05"] + grid)
    assert rc == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2 and all(r.endswith(",Finite") for r in rows)
    assert all(r.split(",")[2:4] != ["0.0", "0.0"] for r in rows)


def test_eval_does_not_hide_key_error(monkeypatch):
    def broken(lc, p, a, route):
        raise KeyError("inside evaluation")

    monkeypatch.setitem(FUNCTIONS, "wp", Function(broken))
    with pytest.raises(KeyError):
        main(["eval", "--fn", "wp", "--u", "0.1,0.1"])


# The child lists sys.modules on stderr at exit: every module it loaded, by
# an import statement, `__import__` or `importlib.import_module` alike
# (`-X importtime` logs no `importlib.import_module` load).
_MODULES_LINE = "modules at exit:"
_REPORT_MODULES = (
    "import atexit, sys\n"
    f"atexit.register(lambda: print({_MODULES_LINE!r}, *sys.modules, file=sys.stderr))\n"
)


def run_fresh(*args):
    """(exit code, stdout, names of the modules loaded at exit) of a fresh
    interpreter on this package, started as `python -m module ...` or
    `python -c code ...` (args)."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(weierzeta.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    flag, target, *rest = args
    if flag == "-m":
        code = f"import runpy\nrunpy.run_module({target!r}, run_name='__main__', alter_sys=True)\n"
    else:
        assert flag == "-c", args
        code = target
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_MODULES + code, *rest],
        env=env, capture_output=True, text=True, timeout=120,
    )
    reports = [line[len(_MODULES_LINE):].split() for line in proc.stderr.splitlines() if line.startswith(_MODULES_LINE)]
    assert len(reports) == 1, proc.stderr
    return proc.returncode, proc.stdout, set(reports[0])


def test_run_fresh_sees_a_module_loaded_by_importlib():
    rc, _, modules = run_fresh("-c", "import importlib\nimportlib.import_module('weierzeta.jacobi')")
    assert rc == 0 and "weierzeta.jacobi" in modules


def loads_numpy(modules) -> bool:
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


KERNEL_MODULES = {"weierzeta.aux_zeta", "weierzeta.zeta_diff", "weierzeta.jacobi"}


def package_modules(modules) -> set:
    return {m for m in modules if m.startswith("weierzeta.")}


# The records are named tuples: start-up builds no dataclass, whose module
# pulls in inspect and execs generated methods for each class.
DATACLASS_IMPORTS = {"dataclasses", "inspect"}


GRID = ["--re=0:0.5:3", "--im=0.1:0.5:3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--fn", "wp", "--u", "0.2,0.1"],
        ["eval", "--list-fns"],
        ["table", "--fn", "sn"] + GRID,
        ["table", "--fn", "sn", "--format", "csv"] + GRID,
        ["constants"],
    ],
    ids=["eval", "eval-list-fns", "table", "table-csv", "constants"],
)
def test_commands_start_without_numpy(argv):
    # The package imports no numpy, and the identity suite serves only
    # `verify`; the scalar commands must not pay for importing either.
    rc, out, modules = run_fresh("-m", "weierzeta.cli", *argv)
    assert rc == 0 and out
    assert "weierzeta.functions" in modules
    assert "weierzeta.verify" not in modules
    assert not loads_numpy(modules)
    assert not DATACLASS_IMPORTS & modules


def test_package_import_without_numpy():
    # The package namespace is lazy: importing it loads no submodule.
    rc, _, modules = run_fresh("-c", "import weierzeta")
    assert rc == 0 and "weierzeta" in modules
    assert not package_modules(modules)
    assert not loads_numpy(modules)
    assert not DATACLASS_IMPORTS & modules


def test_verify_checks_its_sides_without_inspect():
    # The suite counts a side's parameters from its code object alone.
    rc, out, modules = run_fresh("-m", "weierzeta.cli", "verify", "--n", "1", "--only", "weierstrass_3term*")
    assert rc == 0 and out
    assert "weierzeta.verify" in modules
    assert not DATACLASS_IMPORTS & modules


def table_csv_modules(*argv) -> set:
    rc, out, modules = run_fresh("-m", "weierzeta.cli", "table", *argv, *GRID, "--format", "csv")
    assert rc == 0 and len(out.splitlines()) == 10
    return modules


def test_table_csv_of_wp_loads_no_other_layer_and_no_json():
    modules = table_csv_modules("--fn", "wp")
    assert "weierzeta.functions" in modules
    assert not (KERNEL_MODULES | {"weierzeta.verify", "json"}) & modules


@pytest.mark.parametrize(
    "argv, kernel",
    [
        (["--fn", "zeta2", "--route", "qseries"], "weierzeta.aux_zeta"),
        (["--fn", "delta12"], "weierzeta.zeta_diff"),
        (["--fn", "sn"], "weierzeta.jacobi"),
    ],
    ids=["zeta2", "delta12", "sn"],
)
def test_table_csv_adds_only_the_kernel_module_it_evaluates(argv, kernel):
    wp = package_modules(table_csv_modules("--fn", "wp"))
    assert package_modules(table_csv_modules(*argv)) - wp == {kernel}


@pytest.mark.parametrize("kernel", ["aux_zeta", "zeta_diff", "jacobi"])
def test_package_attribute_loads_the_kernel_module_alone(kernel):
    # Reading weierzeta.<kernel> after `import weierzeta` loads what importing
    # the module loads, no other kernel module and not the function table, and
    # binds the module in the package.
    read = (
        f"import sys, weierzeta\nmodule = weierzeta.{kernel}\n"
        f"print(vars(weierzeta)[{kernel!r}] is module is sys.modules['weierzeta.{kernel}'])"
    )
    rc, out, modules = run_fresh("-c", read)
    assert rc == 0 and out == "True\n"
    _, _, imported = run_fresh("-c", f"import weierzeta.{kernel}")
    assert modules == imported
    assert KERNEL_MODULES & modules == {f"weierzeta.{kernel}"}
    assert not {"weierzeta.functions", "weierzeta.verify"} & modules


def test_list_fns_loads_no_kernel_module():
    rc, out, modules = run_fresh("-m", "weierzeta.cli", "eval", "--list-fns")
    assert rc == 0 and sorted(out.split()) == sorted(FUNCTIONS)
    assert not (KERNEL_MODULES | {"weierzeta.verify"}) & modules


def test_verify_loads_the_suite():
    rc, out, modules = run_fresh("-m", "weierzeta.cli", "verify", "--n", "3", "--only", "cor212_*")
    assert rc == 0
    assert [r["name"] for r in json.loads(out)] == ["cor212_row_r1", "cor212_row_r2", "cor212_row_r3"]
    # The Jacobi rows read the zetadiff route and sn, cn, dn: no auxiliary zeta.
    assert {"weierzeta.zeta_diff", "weierzeta.jacobi", "weierzeta.verify", "json"} <= modules
    assert "weierzeta.aux_zeta" not in modules


@pytest.mark.parametrize(
    "name",
    ["IdentityReport", "IdentitySpec", "default_suite", "report_to_json", "reports_to_json", "run_suite"],
)
def test_suite_names_resolve_to_the_suite_module(name):
    from weierzeta import verify

    assert getattr(weierzeta, name) is getattr(verify, name)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        weierzeta.no_such_name


# Each public name of the package by the module that defines it.
PUBLIC_NAMES = {
    "errors": [
        "BranchAmbiguity", "ConvergencePolicyError", "DegenerateLattice", "IdenticalIndices",
        "InvalidPeriodRatio", "NearZeroDenominator", "PoleProximityError", "SeriesDivergence",
        "SuiteConfigError", "ValueOverflow", "WeierzetaError", "ZeroPeriod",
    ],
    "theta": ["DEFAULT_CONFIG", "HALF_PERIOD_THETA", "SeriesConfig", "theta_dlog", "theta_eval", "theta_nullwerte"],
    "lattice": [
        "Lattice", "LatticeConstants", "build_lattice", "complement", "constants", "constants_to_json",
        "eisenstein_invariants", "reduce_to_cell",
    ],
    "weier_core": [
        "EvalResult", "Status", "sigma", "sigma_aux", "sigma_product", "wp", "wp_lattice_sum", "wp_prime",
        "zeta_lattice_sum", "zeta_w",
    ],
    "aux_zeta": ["ZetaRoute", "zeta_aux"],
    "zeta_diff": [
        "DeltaConstants", "DeltaRoute", "constants_from_deltas", "delta", "delta2", "delta2_prime", "delta_prime",
    ],
    "jacobi": ["agm_complete_integrals", "jacobi_E_Z", "jacobi_E_Z_Pi", "jacobi_params", "sn_cn_dn"],
    "verify": ["IdentityReport", "IdentitySpec", "default_suite", "report_to_json", "reports_to_json", "run_suite"],
}


def test_package_lists_its_56_public_names():
    names = [n for ns in PUBLIC_NAMES.values() for n in ns]
    assert len(set(names)) == len(names) == 56
    assert sorted(weierzeta.__all__) == sorted(names)
    assert set(names) <= set(dir(weierzeta))


def test_public_names_are_their_modules_attributes():
    for module, names in PUBLIC_NAMES.items():
        for name in names:
            assert getattr(weierzeta, name) is getattr(sys.modules[f"weierzeta.{module}"], name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from weierzeta import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(weierzeta.__all__)
    assert all(namespace[n] is getattr(weierzeta, n) for n in namespace)


def test_public_name_is_stored_in_the_package_on_first_access():
    code = (
        "import weierzeta\n"
        "for name in ('wp', 'run_suite'):\n"
        "    before = name in vars(weierzeta)\n"
        "    getattr(weierzeta, name)\n"
        "    print(name, before, vars(weierzeta).get(name) is getattr(weierzeta, name))\n"
    )
    rc, out, _ = run_fresh("-c", code)
    assert rc == 0
    assert out.splitlines() == ["wp False True", "run_suite False True"]


def test_verify_and_partialfrac_eval_load_no_numpy():
    # The partial-fraction route builds its coset tables in pure Python, so
    # the whole suite, its prop22 rows included, runs without numpy.
    rc, out, modules = run_fresh("-m", "weierzeta.cli", "verify", "--n", "3")
    assert rc == 0
    report = json.loads(out)
    assert len(report) == len(default_suite()) and all(r["passed"] for r in report)
    assert sum(r["name"].startswith("prop22_partialfrac_") for r in report) == 3
    assert not loads_numpy(modules)
    rc, out, modules = run_fresh(
        "-m", "weierzeta.cli", "eval", "--fn", "zeta1", "--route", "partialfrac", "--u", "0.2,0.1"
    )
    assert rc == 0 and json.loads(out)["status"] == "Finite"
    assert not loads_numpy(modules)


@pytest.mark.parametrize(
    "fn, expected",
    [
        ("E", "[0.5624881177155968, 0.1634063758353278]"),
        ("Z", "[0.05984421602709167, 0.09242521307899978]"),
    ],
)
def test_E_and_Z_do_not_compute_Pi(monkeypatch, fn, expected):
    def no_pi(*args):
        raise AssertionError("Pi was computed")

    monkeypatch.setattr(jacobi, "_tracked_log_ratio", no_pi)
    rc, out, _ = run_cli(["eval", "--fn", fn, "--u", "0.17,0.04", "--tau", "0.3,1.1"])
    assert rc == 0
    assert out == '{"value": %s, "status": "Finite"}\n' % expected
