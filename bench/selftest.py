"""Self-tests of the benchmark; run from the repository root:

    python3 bench/selftest.py            # all tests, about two minutes
    python3 bench/selftest.py -k quick   # skip the ones that run workloads
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import common  # noqa: E402
import run  # noqa: E402
from reference import LatticeRef, check_value  # noqa: E402

sys.path.insert(0, common.SRC)

with open(os.path.join(common.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

W1, W3 = common.reference_lattice("generic")
REF = LatticeRef(W1, W3)


def _perturb(z: complex, rel: float = 1e-6) -> complex:
    return z * (1 + rel)


class QuickChecks(unittest.TestCase):
    """quick: the checks themselves, without running a workload."""

    def test_quick_value_perturbed_by_1e6_fails(self):
        u = 0.21 + 0.07j
        for quantity, expected in (("wp", REF.wp(u)), ("zeta_aux", REF.zeta_aux(2, u)),
                                   ("delta2", REF.delta2(1, 2, u)), ("sn", REF.sn_cn_dn(u)[0]),
                                   ("disc", REF.disc)):
            exact = complex(expected)
            self.assertIsNone(check_value(REF, quantity, exact, expected), quantity)
            self.assertIsNotNone(check_value(REF, quantity, _perturb(exact), expected), quantity)

    def _table(self, fn: str, cosets, edit=None):
        axes = ("0.0:0.5:3", "0.0:0.55:3")
        xs, ys = (common.axis_points(a) for a in axes)
        rows = [checks.TABLE_HEADER]
        basis = common.reduced_basis(W1, W3)
        offsets = [common.half_periods(W1, W3)[c] for c in cosets]
        for k, u in enumerate(complex(x, y) for y in ys for x in xs):
            if any(common.coset_distance(basis, u, off) < 1e-9 for off in offsets):
                row = [u.real, u.imag, "", "", "AtPole"]
            else:
                value = complex(checks.table_reference(fn, REF, u)[1])
                row = [u.real, u.imag, value.real, value.imag, "Finite"]
            if edit is not None:
                row = edit(k, row)
            rows.append(",".join(x if isinstance(x, str) else repr(x) for x in row))
        return checks.check_table(fn, cosets, "\n".join(rows), axes, W1, W3, REF, random.Random(0))

    def test_quick_table_rows(self):
        for fn, _, cosets in common.TABLE_FUNCTIONS:
            res = self._table(fn, cosets)
            self.assertEqual(res["failed"], 0, (fn, res))
            self.assertEqual(res["attempted"], 9)

        def perturb_row(k, row):
            if k == 4:
                row[2] *= 1 + 1e-6
            return row

        def finite_as_pole(k, row):
            return [row[0], row[1], "", "", "AtPole"] if k == 4 else row

        def pole_as_finite(k, row):
            return [row[0], row[1], 1.0, 0.0, "Finite"] if k == 0 else row

        for edit in (perturb_row, finite_as_pole, pole_as_finite):
            res = self._table("wp", (0,), edit)
            self.assertEqual(res["failed"], 1, (edit.__name__, res))

    def test_quick_table_u_rounding(self):
        # u one ulp off its grid point (an axis built another way) is
        # accepted; a u that is not the grid point cannot be checked.
        def ulp_off(k, row):
            return [math.nextafter(row[0], math.inf), *row[1:]] if k == 8 else row

        def wrong_u(k, row):
            return [row[0] + 1e-6, *row[1:]] if k == 8 else row

        self.assertEqual(self._table("wp", (0,), ulp_off)["failed"], 0)
        with self.assertRaises(checks.CheckError):
            self._table("wp", (0,), wrong_u)

    def test_quick_correct_flag(self):
        prov = {"code_under_test_is_checkout_src": True}
        for workload in ("verify_suite", "table_grid"):
            self.assertTrue(run.is_correct(workload, prov, 0))
            self.assertFalse(run.is_correct(workload, prov, 1))
        self.assertTrue(run.is_correct("lattice_sweep", prov, 5))
        self.assertFalse(run.is_correct("lattice_sweep", {"code_under_test_is_checkout_src": False}, 0))

    def test_quick_sweep_values_and_status(self):
        import weierzeta as wz

        import child

        u, a = 0.21 + 0.07j, 0.11 + 0.13j
        v = {"i": 0, "u": u, "a": a, "lam": 2, "pair": (1, 2)}
        pair = lambda z: [complex(z).real, complex(z).imag]  # noqa: E731
        outputs = {
            "constants": {f: pair(getattr(REF, f)) for f in checks.CONSTANT_FIELDS},
            "wp": {"value": pair(REF.wp(u)), "status": "Finite"},
            "zeta_aux": {"value": pair(REF.zeta_aux(2, u)), "status": "Finite"},
            "delta2": {"value": pair(REF.delta2(1, 2, u)), "status": "Finite"},
            "sn_cn_dn": {"value": [pair(x) for x in REF.sn_cn_dn(u)]},
            "jacobi_E_Z_Pi": {"value": [pair(x) for x in (*REF.jacobi_E_Z(u), REF.jacobi_Pi(u, a))]},
        }
        self.assertEqual(checks.check_sweep_visit(v, outputs, REF, with_pi=True), [])
        for op in outputs:
            bad = json.loads(json.dumps(outputs))
            if op == "constants":
                bad[op]["g2"][0] *= 1 + 1e-6
            elif "status" in bad[op]:
                bad[op]["value"][0] *= 1 + 1e-6
            else:
                bad[op]["value"][-1][0] *= 1 + 1e-6
            found = checks.check_sweep_visit(v, bad, REF, with_pi=True)
            self.assertEqual([f[0] for f in found], [op])

        lat = wz.build_lattice(W1, W3)
        near = {"wp": (wz.wp(lat, 1e-12 + 0j), None)}
        self.assertEqual(child.classify(wz, "wp", near), "status")
        self.assertEqual(child.classify(wz, "wp", {"wp": (None, ZeroDivisionError())}), "untyped")
        self.assertEqual(child.classify(wz, "wp", {"wp": (None, wz.SeriesDivergence())}), "typed")
        self.assertEqual(child.classify(wz, "wp", {}), "blocked")

    def test_quick_seeded_inputs(self):
        def inputs(seed):
            sweep = common.SweepInputs(seed)
            visits = [sweep.visit(i) for i in range(0, 3 * common.SWEEP_POOL, 7)]
            return common.verify_order(seed), common.table_grid(seed), visits

        self.assertEqual(inputs(3), inputs(3))
        for other in (4, 5):
            a, b = inputs(3), inputs(other)
            self.assertNotEqual(a[1], b[1])
            self.assertNotEqual(a[2], b[2])
        self.assertEqual(common.sweep_pool(), common.sweep_pool())

    def test_quick_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        for w in BENCHMARK["workloads"]:
            self.assertTrue(w["why"] and "\n" not in w["why"] and len(w["why"]) <= 200, w)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertIn("bench", BENCHMARK["paths"])


class WorkloadRuns(unittest.TestCase):
    """Every metric named in BENCHMARK.json is printed, with its unit."""

    def _run(self, workload: str, trace: int, with_detail: bool = False):
        cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        if with_detail:
            return result, json.loads(proc.stdout.splitlines()[-2])["detail"]
        return result

    def test_metrics_and_units(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                printed = {k: v["unit"] for k, v in self._run(workload, trace)["metrics"].items()}
                named = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                self.assertEqual(printed, named, (workload, trace))

    def test_sweep_counts_known_defects(self):
        import weierzeta as wz

        result, detail = self._run("lattice_sweep", 0, with_detail=True)
        self.assertGreater(result["failed"], 0)
        ops = detail["operations"]["detail"]
        errors = ops["errors"]
        # The reproducers: q-series divergence at tau = 0.45+0.04i, the
        # discriminant lost on tau = 5i, 6i, 8i, sigma underflow on the
        # large skewed cell (an untyped ZeroDivisionError).
        self.assertIn("zeta_aux:SeriesDivergence", errors)
        self.assertIn("jacobi_params:DegenerateLattice", errors)
        self.assertTrue(any(k.endswith(":ZeroDivisionError") for k in errors), errors)
        self.assertFalse(issubclass(ZeroDivisionError, wz.WeierzetaError))
        self.assertGreater(ops["kinds"]["untyped"], 0)


if __name__ == "__main__":
    unittest.main()
