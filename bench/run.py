"""weierzeta benchmark: one workload per run, from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         --verify-n N --verify-seed N

BENCHMARK.json fixes --verify-n and --verify-seed, the sample count and
seed of every `verify` command.

Workloads, each a closed loop with one client:
    verify_suite   `python -m weierzeta.cli verify` on the five reference
                   lattices, one process per lattice; a pass is the
                   five-lattice certificate.
    table_grid     `python -m weierzeta.cli table` CSV grids of wp, zeta2
                   (q-series route), delta12 and sn over one period cell of
                   the generic lattice, pole points included.
    lattice_sweep  in-process library calls over a pool of 192 unreduced
                   lattices, more than the 128-entry per-lattice caches hold.

With --trace 0 the run measures for --seconds and reports the end-to-end
metrics, the same for every workload:
    setup_s          median over fresh interpreters of the time to import
                     weierzeta.cli and get the workload's first lattice's
                     constants (the floor of any one-shot command)
    peak_rss_mb      peak resident memory of the workload's processes
    ops_per_s        operations (identity reports, table rows, sweep calls)
                     per second of workload time; a pass (the certificate,
                     the four tables, one cycle through the sweep pool) has
                     a fixed number of operations, so this is the inverse
                     of the pass time
    request_p50_ms   CLI workloads: the median over commands of each
                     command's median wall time; sweep: the median visit
    request_tail_ms  CLI workloads: the slowest command's median wall time;
                     sweep: the 99th-percentile visit (runs have thousands
                     of visits, so well over ten lie beyond it)
All processes are pinned to one CPU, and every timed interval is bracketed
by a fixed calibration loop on that CPU (common.calibrate).  Times are
reported at the reference core speed, wall * CAL_REFERENCE_S / calibration,
which removes the drift of a shared host's core speed; the detail line
repeats them unscaled.
With --trace 1 it runs one fixed pass untraced and one traced, and
reports per-layer metrics, micro timings and the tracing overhead.  Every
run checks the program's outputs (see checks.py) and prints a detail line,
then the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts operations that raised, returned a wrong pole status or a
value outside 1e-9 of a 30-digit reference (or whose call could not run
because an earlier call of the same visit raised); known defects are
counted, not filtered.  `attempted` and `failed` cover a fixed set of
operations that depends on the seed alone: one pass of a CLI workload,
the first rotation of the sweep (every pool lattice with each of its
argument sets once).  Later passes repeat the same inputs and must give
the same outcomes.  `correct` is false when the code under test is not
this checkout's src/, or when verify_suite or table_grid has a failed
operation (both are clean, so any failure there is a regression);
lattice_sweep's failures, known defects of unreduced bases, only count in
`failed`.  Outputs that cannot be checked at all (unparseable,
of the wrong shape, different between repetitions of the same input or
between traced and untraced runs) end the run with exit code 1 and no
result.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import random  # noqa: E402

import common  # noqa: E402
from checks import CheckError, check_sweep, check_table, check_verify  # noqa: E402
from reference import LatticeRef  # noqa: E402
from tracer import LAYERS  # noqa: E402

clock = time.perf_counter

WORKLOADS = ("verify_suite", "table_grid", "lattice_sweep")
SETUP_PROBES = 7
CALL_TIMEOUT = 150
SWEEP_TRACE_CYCLES = common.SWEEP_POINTS  # one full rotation of every lattice's arguments
SWEEP_TAIL_PERCENTILE = 99

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
}

PY = sys.executable
CHILD = [PY, os.path.join(common.BENCH_DIR, "child.py")]

# Time from a fresh interpreter until weierzeta.cli is imported and the
# workload's first lattice has its constants.
SETUP_PROBE = (
    "import sys\n"
    "import weierzeta.cli\n"
    "from weierzeta.lattice import build_lattice, constants\n"
    "w1, w3 = (complex(*map(float, a.split(','))) for a in sys.argv[1:3])\n"
    "constants(build_lattice(w1, w3))\n"
    "print(weierzeta.cli.__file__, flush=True)\n"
)
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import weierzeta.cli\n"
    "print(time.perf_counter() - t0, flush=True)\n"
)


class HarnessError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = common.SRC
    return env


def run_proc(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = clock()
    proc = subprocess.run(cmd, cwd=common.ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CALL_TIMEOUT)
    return clock() - t0, proc


def run_json_child(cmd: list[str]) -> dict:
    _, proc = run_proc(cmd)
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(cmd[1:4])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def probe(code: str, *argv: str) -> tuple[float, str]:
    """Seconds until a fresh interpreter running code prints its first line, and that line."""
    t0 = clock()
    with subprocess.Popen([PY, "-c", code, *argv], cwd=common.ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = clock() - t0
        _, err = proc.communicate(timeout=CALL_TIMEOUT)
    if proc.returncode != 0 or not line:
        raise HarnessError(f"probe failed ({proc.returncode}): {err[-2000:]}")
    return elapsed, line.strip()


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def provenance(args, module_file: str) -> dict:
    src_pkg = os.path.join(common.SRC, "weierzeta")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src_pkg)):
        if name.endswith(".py"):
            with open(os.path.join(src_pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.isdir(os.path.join(common.ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "verify_n": args.verify_n,
        "verify_seed": args.verify_seed,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "weierzeta_cli_file": module_file,
        "code_under_test_is_checkout_src": os.path.realpath(module_file).startswith(
            os.path.realpath(src_pkg) + os.sep),
    }


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def cli_requests(args) -> list[tuple[str, list[str]]]:
    """(key, CLI arguments) of one pass of a CLI workload."""
    if args.workload == "verify_suite":
        return [
            (name, ["verify", "--tau", common.cplx_arg(common.REFERENCE_TAUS[name]),
                    "--n", str(args.verify_n), "--seed", str(args.verify_seed)])
            for name in common.verify_order(args.seed)
        ]
    re_spec, im_spec = common.table_grid(args.seed)
    tau = common.cplx_arg(common.REFERENCE_TAUS["generic"])
    requests = []
    for fn, route, _ in common.TABLE_FUNCTIONS:
        # "--re=" form: a negative axis start would otherwise parse as an option.
        argv = ["table", "--fn", fn, f"--re={re_spec}", f"--im={im_spec}", "--tau", tau, "--format", "csv"]
        requests.append((fn, argv + (["--route", route] if route else [])))
    return requests


def first_lattice(args) -> tuple[complex, complex]:
    if args.workload == "verify_suite":
        return common.reference_lattice(common.verify_order(args.seed)[0])
    if args.workload == "table_grid":
        return common.reference_lattice("generic")
    inputs = common.SweepInputs(args.seed)
    i = 0
    while True:  # the first visited lattice that build_lattice accepts
        v = inputs.visit(i)
        if abs(cmath.exp(1j * cmath.pi * v["w3"] / v["w1"])) <= common.Q_MAX:
            return v["w1"], v["w3"]
        i += 1


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_cli_outputs(args, outputs: dict) -> dict:
    """Per-pass attempted/failed counts of a CLI workload's outputs."""
    attempted = failed = 0
    detail = {}
    if args.workload == "verify_suite":
        for name, (stdout, rc) in outputs.items():
            res = check_verify(stdout, rc)
            attempted += res["attempted"]
            failed += res["failed"]
            detail[name] = res
        return {"attempted": attempted, "failed": failed, "detail": detail}
    w1, w3 = common.reference_lattice("generic")
    ref = LatticeRef(w1, w3)
    rng = random.Random(f"table-check:{args.seed}")
    axes = common.table_grid(args.seed)
    for fn, _, cosets in common.TABLE_FUNCTIONS:
        stdout, rc = outputs[fn]
        if rc != 0:
            raise CheckError(f"table {fn} exited {rc}")
        res = check_table(fn, cosets, stdout, axes, w1, w3, ref, rng)
        attempted += res["attempted"]
        failed += res["failed"]
        detail[fn] = res
    return {"attempted": attempted, "failed": failed, "detail": detail}


def sweep_counts(args, result: dict) -> dict:
    """Counts over the sweep's first rotation (see child.run_sweep)."""
    if result["repeat_mismatches"]:
        raise CheckError(f"{result['repeat_mismatches']} sweep visits changed outcome on a repeat of the same inputs")
    kinds = result["kinds"]
    values = check_sweep(args.seed, result["checked"])
    failed = kinds["typed"] + kinds["untyped"] + kinds["status"] + kinds["blocked"] + values["failed"]
    return {
        "attempted": sum(kinds.values()),
        "failed": failed,
        "detail": {"kinds": kinds, "wrong_value": values["failed"], "errors": result["errors"],
                   "reference_check": values, "revisit_share": result["revisit_share"],
                   "visits": result["visits"]},
    }


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def cli_loop(requests, launcher: list[str], seconds: float | None):
    """Whole passes over the requests until seconds have elapsed (one pass
    when seconds is None).  Returns the passes, each a list of (key, wall,
    calibration) samples, and the stdout and stderr of each key."""
    passes, outputs, stderr = [], {}, {}
    deadline = clock() + (seconds or 0)
    cal = common.calibrate()
    while not passes or (seconds is not None and clock() < deadline):
        samples = []
        for key, argv in requests:
            wall, proc = run_proc(launcher + argv)
            out = (proc.stdout, proc.returncode)
            if outputs.setdefault(key, out) != out:
                raise CheckError(f"{key}: output changed between repetitions of the same input")
            stderr[key] = proc.stderr
            after = common.calibrate()
            samples.append((key, wall, (cal + after) / 2))
            cal = after
        passes.append(samples)
    return passes, outputs, stderr


def speed_metrics(passes, setup, ops: int, sweep: bool, scaled: bool) -> dict:
    """Timing metrics from (key, wall, calibration) samples; with scaled, each
    wall is converted to the reference core speed of common.CAL_REFERENCE_S."""
    def t(sample):
        _, wall, cal = sample
        return wall * common.CAL_REFERENCE_S / cal if scaled else wall

    workload_s = sum(sum(map(t, p)) for p in passes)
    if sweep:
        visits = [t(s) for p in passes for s in p]
        p50 = common.median(visits)
        tail = common.percentile(visits, SWEEP_TAIL_PERCENTILE)
    else:
        # The commands of a pass differ in cost, so latency is taken per
        # command: the median command's typical latency, and the slowest's.
        by_key = {}
        for p in passes:
            for sample in p:
                by_key.setdefault(sample[0], []).append(t(sample))
        typical = sorted(common.median(walls) for walls in by_key.values())
        p50, tail = common.median(typical), typical[-1]
    return {
        "setup_s": common.median(map(t, setup)),
        "ops_per_s": ops / workload_s,
        "request_p50_ms": p50 * 1e3,
        "request_tail_ms": tail * 1e3,
    }


def run_end_to_end(args, detail: dict) -> tuple[dict, dict]:
    w1, w3 = first_lattice(args)
    lattice_args = (common.cplx_arg(w1), common.cplx_arg(w3))
    _, module_file = probe(SETUP_PROBE, *lattice_args)  # warm-up: writes bytecode caches
    detail["provenance"] = provenance(args, module_file)

    sweep = args.workload == "lattice_sweep"
    if sweep:
        result = run_json_child(CHILD + ["sweep", "--seed", str(args.seed), "--seconds",
                                         str(args.seconds)])
        # Calibrations bracket each cycle; a cycle's visits use their mean.
        lat, cal, size = result["latencies_s"], result["calibration_s"], common.SWEEP_POOL
        passes = [[(None, w, (cal[c] + cal[c + 1]) / 2) for w in lat[c * size:(c + 1) * size]]
                  for c in range(len(cal) - 1)]
        counts = sweep_counts(args, result)
        ops = result["visits"] * len(common.SWEEP_OPS)
    else:
        passes, outputs, _ = cli_loop(cli_requests(args), [PY, "-m", "weierzeta.cli"], args.seconds)
        # Every pass gives the same outputs (cli_loop checks that), so one
        # pass is counted: the counts do not depend on the run length.
        counts = check_cli_outputs(args, outputs)
        ops = counts["attempted"] * len(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setup = []
    cal = common.calibrate()
    for _ in range(SETUP_PROBES):
        elapsed = probe(SETUP_PROBE, *lattice_args)[0]
        after = common.calibrate()
        setup.append((None, elapsed, (cal + after) / 2))
        cal = after

    detail["samples"] = {"passes": len(passes), "requests": sum(map(len, passes)),
                         "setup_probes": len(setup)}
    detail["unscaled"] = speed_metrics(passes, setup, ops, sweep, scaled=False)
    metrics = speed_metrics(passes, setup, ops, sweep, scaled=True)
    metrics["peak_rss_mb"] = peak_rss_mb
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}, counts


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------


def _bench_line(stderr: str) -> dict:
    for line in reversed(stderr.splitlines()):
        if line.startswith("BENCH "):
            return json.loads(line[6:])
    raise HarnessError(f"traced CLI run printed no BENCH line: {stderr[-2000:]}")


def _add_trace(total: dict, summary: dict) -> None:
    for layer, row in summary["layers"].items():
        total[layer]["calls"] += row["calls"]
        total[layer]["self_s"] += row["self_s"]


def run_traced(args, detail: dict) -> tuple[dict, dict]:
    w1, w3 = first_lattice(args)
    _, module_file = probe(SETUP_PROBE, common.cplx_arg(w1), common.cplx_arg(w3))
    detail["provenance"] = provenance(args, module_file)
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    hits = misses = spans = 0

    if args.workload == "lattice_sweep":
        base = CHILD + ["sweep", "--seed", str(args.seed), "--visits", str(SWEEP_TRACE_CYCLES * common.SWEEP_POOL)]
        plain = run_json_child(base + ["--trace", "0"])
        traced = run_json_child(base + ["--trace", "1"])
        for key in ("kinds", "checked"):
            if plain[key] != traced[key]:
                raise CheckError(f"sweep {key} differ between the traced and untraced runs")
        overhead = sum(traced["latencies_s"]) / sum(plain["latencies_s"])
        _add_trace(layers, traced["trace"])
        spans = traced["trace"]["spans"]
        hits, misses = traced["cache"]["hits"], traced["cache"]["misses"]
        counts = sweep_counts(args, traced)
    else:
        requests = cli_requests(args)
        plain_passes, plain_out, _ = cli_loop(requests, CHILD + ["cli", "--trace", "0", "--"], None)
        traced_passes, traced_out, traced_err = cli_loop(
            requests, CHILD + ["cli", "--trace", "1", "--"], None)
        if plain_out != traced_out:
            raise CheckError("tracing changed the CLI output")
        overhead = sum(w for _, w, _ in traced_passes[0]) / sum(w for _, w, _ in plain_passes[0])
        for key, _ in requests:
            info = _bench_line(traced_err[key])
            _add_trace(layers, info["trace"])
            spans += info["trace"]["spans"]
            hits += info["cache"]["hits"]
            misses += info["cache"]["misses"]
        counts = check_cli_outputs(args, traced_out)

    micro = run_json_child(CHILD + ["micro", "--seed", str(args.seed), "--verify-n", str(args.verify_n),
                                    "--verify-seed", str(args.verify_seed)])["metrics"]
    import_s = [float(probe(IMPORT_PROBE)[1]) for _ in range(SETUP_PROBES)]

    detail["samples"] = {"spans": spans, "import_probes": len(import_s)}
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = {"value": layers[layer]["calls"], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": layers[layer]["self_s"], "unit": "s"}
    lookups = hits + misses
    metrics["lattice.constants_hits"] = {"value": hits, "unit": "count"}
    metrics["lattice.constants_lookups"] = {"value": lookups, "unit": "count"}
    metrics["lattice.constants_hit_ratio"] = {"value": hits / lookups if lookups else 0.0, "unit": "ratio"}
    metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    for name, value in micro.items():
        metrics[name] = {"value": value, "unit": "s" if name.startswith("verify.") else "us"}
    metrics["cli.import_s"] = {"value": common.median(import_s), "unit": "s"}
    return metrics, counts


# ---------------------------------------------------------------------------


def is_correct(workload: str, prov: dict, failed: int) -> bool:
    """The code under test is this checkout's, and a workload that is clean
    at the benchmark's commit stays clean.  lattice_sweep carries known
    defects, which count only in `failed`."""
    return prov["code_under_test_is_checkout_src"] and (workload == "lattice_sweep" or failed == 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--verify-n", type=int, required=True, help="samples per identity")
    parser.add_argument("--verify-seed", type=int, required=True, help="seed of the verify command")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "weierzeta", "__init__.py")):
        sys.stderr.write(f"bench: no weierzeta sources under {common.SRC}; run from a repository checkout\n")
        return 2

    # One client on one CPU: the workload's processes inherit this affinity,
    # so every measurement runs on the same core instead of migrating
    # between cores whose speed varies independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    detail: dict = {}
    try:
        if args.trace:
            metrics, counts = run_traced(args, detail)
        else:
            metrics, counts = run_end_to_end(args, detail)
    except CheckError as exc:
        sys.stderr.write(f"bench: outputs could not be checked: {exc}\n")
        return 1
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    correct = is_correct(args.workload, detail["provenance"], counts["failed"])
    detail["operations"] = counts
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": counts["attempted"], "failed": counts["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
