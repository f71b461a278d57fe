"""Correctness checks of each workload's outputs.

A failed operation is counted, never filtered out.  `CheckError` is raised
only when an output cannot be checked at all (unparseable, wrong shape,
different between repetitions); the run then ends without a result.
"""

from __future__ import annotations

import json
import random

import common
from reference import LatticeRef, check_value

POLE_STATUSES = ("AtPole", "NearPole")
TABLE_HEADER = "re_u,im_u,re_value,im_value,status"
TABLE_VALUE_SAMPLES = 48  # finite rows per function checked against the reference
SWEEP_PI_CHECKS = 3  # Pi needs a quadrature; check it on this many visits
# A row's u may differ from the bench's grid point by rounding (for example
# when the axis is built by numpy.linspace, whose last point is exactly stop).
TABLE_U_TOLERANCE = 1e-12


class CheckError(Exception):
    """An output could not be checked."""


# ---------------------------------------------------------------------------
# verify_suite: one operation per identity report
# ---------------------------------------------------------------------------


def check_verify(stdout: str, rc: int) -> dict:
    try:
        reports = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"verify output is not JSON (exit {rc}): {exc}") from None
    failed = [r["name"] for r in reports if not r["passed"]]
    if rc != (1 if failed else 0):
        raise CheckError(f"verify exit code {rc} does not match {len(failed)} failed reports")
    return {"attempted": len(reports), "failed": len(failed), "failed_names": failed}


# ---------------------------------------------------------------------------
# table_grid: one operation per row
# ---------------------------------------------------------------------------


def table_reference(fn: str, ref: LatticeRef, u: complex):
    """(quantity, reference value) of a table function at u."""
    if fn == "wp":
        return "wp", ref.wp(u)
    if fn == "zeta2":
        return "zeta_aux", ref.zeta_aux(2, u)
    if fn == "delta12":
        return "delta2", ref.delta2(1, 2, u)
    if fn == "sn":
        return "sn", ref.sn_cn_dn(u)[0]
    raise ValueError(fn)


def check_table(fn: str, cosets, csv_text: str, axes: tuple[str, str], w1: complex, w3: complex,
                ref: LatticeRef, rng: random.Random) -> dict:
    """Status of every row against the pole loci; value of a seeded sample
    of finite rows against the reference.  Both use the row's own u, which
    must lie within TABLE_U_TOLERANCE of its grid point."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        raise CheckError(f"table {fn}: unexpected header {lines[:1]!r}")
    xs, ys = (common.axis_points(spec) for spec in axes)
    grid = [complex(x, y) for y in ys for x in xs]
    rows = lines[1:]
    if len(rows) != len(grid):
        raise CheckError(f"table {fn}: {len(rows)} rows for a {len(grid)}-point grid")
    basis = common.reduced_basis(w1, w3)
    offsets = [common.half_periods(w1, w3)[c] for c in cosets]
    radius = common.NEAR_POLE_FACTOR * min(abs(2 * w1), abs(2 * w3))
    bad = []
    finite = []
    poles = 0
    for k, (line, point) in enumerate(zip(rows, grid)):
        fields = line.split(",")
        try:
            u = complex(float(fields[0]), float(fields[1])) if len(fields) == 5 else None
        except ValueError:
            u = None
        if u is None or abs(u - point) > TABLE_U_TOLERANCE * max(1.0, abs(point)):
            raise CheckError(f"table {fn}: row {k} is {line!r}, expected u = {point!r}")
        re_v, im_v, status = fields[2:]
        pole = any(common.coset_distance(basis, u, off) < radius for off in offsets)
        poles += pole
        if pole:
            if status not in POLE_STATUSES or re_v or im_v:
                bad.append((k, f"status {status} at a pole"))
        elif status != "Finite" or not re_v or not im_v:
            bad.append((k, f"status {status} at a regular point"))
        else:
            finite.append((k, u, complex(float(re_v), float(im_v))))
    sample = rng.sample(finite, min(TABLE_VALUE_SAMPLES, len(finite)))
    for k, u, got in sample:
        quantity, expected = table_reference(fn, ref, u)
        err = check_value(ref, quantity, got, expected)
        if err is not None:
            bad.append((k, f"relative error {err:.3g}"))
    return {"attempted": len(rows), "failed": len(bad), "pole_rows": poles,
            "values_checked": len(sample), "bad": bad[:5]}


# ---------------------------------------------------------------------------
# lattice_sweep: one operation per library call
# ---------------------------------------------------------------------------

CONSTANT_FIELDS = {
    "e1": "e", "e2": "e", "e3": "e", "eta1": "eta", "eta2": "eta", "eta3": "eta",
    "g2": "g2", "g3": "g3", "disc": "disc",
}


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def check_sweep_visit(v: dict, outputs: dict, ref: LatticeRef, with_pi: bool) -> list[tuple[str, str]]:
    """(operation, reason) for each checked call of a visit that returned a
    value outside tolerance.  Calls that raised were already counted."""
    u = v["u"]
    bad = []

    def judge(op: str, quantity: str, got, expected):
        err = check_value(ref, quantity, _c(got), expected)
        if err is not None:
            bad.append((op, f"{quantity} relative error {err:.3g}"))
            return True
        return False

    out = outputs.get("constants", {})
    if "error" not in out and out:
        for field, quantity in CONSTANT_FIELDS.items():
            if judge("constants", quantity, out[field], getattr(ref, field)):
                break
    lam, (l1, l2) = v["lam"], v["pair"]
    for op, quantity, expected in (
        ("wp", "wp", lambda: ref.wp(u)),
        ("zeta_aux", "zeta_aux", lambda: ref.zeta_aux(lam, u)),
        ("delta2", "delta2", lambda: ref.delta2(l1, l2, u)),
    ):
        out = outputs.get(op, {})
        if out.get("status") == "Finite":
            judge(op, quantity, out["value"], expected())
    out = outputs.get("sn_cn_dn", {})
    if "value" in out:
        for name, got, expected in zip(("sn", "cn", "dn"), out["value"], ref.sn_cn_dn(u)):
            if judge("sn_cn_dn", name, got, expected):
                break
    out = outputs.get("jacobi_E_Z_Pi", {})
    if "value" in out:
        big_e, big_z = ref.jacobi_E_Z(u)
        if not judge("jacobi_E_Z_Pi", "E", out["value"][0], big_e):
            if not judge("jacobi_E_Z_Pi", "Z", out["value"][1], big_z) and with_pi:
                judge("jacobi_E_Z_Pi", "Pi", out["value"][2], ref.jacobi_Pi(u, v["a"]))
    return bad


def check_sweep(seed: int, checked: list[dict]) -> dict:
    """Reference check of the visits the child flagged, each distinct
    (lattice, argument set) once and counted once, so the count does not
    depend on the run length; repeats must give identical outputs."""
    inputs = common.SweepInputs(seed)
    first: dict[tuple, tuple] = {}
    for rec in checked:
        v = inputs.visit(rec["i"])
        key = (v["lattice"], v["u"], v["a"])
        if key in first:
            if first[key][1] != rec["outputs"]:
                raise CheckError(f"sweep visit {rec['i']} differs from an earlier visit with the same inputs")
            first[key][2].append(rec["i"])
        else:
            first[key] = (v, rec["outputs"], [rec["i"]])
    refs: dict[int, LatticeRef] = {}
    failed = 0
    bad = []
    pi_left = SWEEP_PI_CHECKS
    for v, outputs, _ in first.values():
        j = v["lattice"]
        if j not in refs:
            refs[j] = LatticeRef(v["w1"], v["w3"])
        with_pi = pi_left > 0 and "value" in outputs.get("jacobi_E_Z_Pi", {})
        pi_left -= with_pi
        found = check_sweep_visit(v, outputs, refs[j], with_pi)
        failed += len(found)
        bad.extend((v["i"], op, why) for op, why in found)
    return {"distinct_checked": len(first), "visits_checked": len(checked),
            "failed": failed, "bad": bad[:8]}
