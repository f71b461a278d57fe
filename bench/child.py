"""Child processes of the benchmark; each prints one JSON line.

    child.py cli --trace 0|1 -- <weierzeta CLI arguments>
        Runs weierzeta.cli.main in this process, optionally traced. The CLI's
        output goes to stdout unchanged; a line "BENCH <json>" with the
        trace summary and cache counters goes to stderr.
    child.py sweep --seed N (--seconds S | --visits V) --trace 0|1
        lattice_sweep in-process: a closed loop over seeded visits, either
        for S seconds (at least one rotation) or for the first V visits.
    child.py micro --seed N --verify-n N --verify-seed N
        Per-call micro timings of each layer on seeded inputs.

Only the standard library and weierzeta are imported here, so memory and
start-up belong to the library.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracer as tracer_mod  # noqa: E402

clock = time.perf_counter


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _cache_counts() -> dict:
    from weierzeta.lattice import constants

    if not hasattr(constants, "cache_info"):  # traced: the lru_cache sits under the span wrapper
        constants = constants.__wrapped__
    info = constants.cache_info()
    return {"hits": info.hits, "misses": info.misses}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def run_cli(argv: list[str], trace: bool) -> int:
    tracer = tracer_mod.install() if trace else None
    import weierzeta.cli as cli

    rc = cli.main(argv)
    sys.stdout.flush()
    info = {"rc": rc, "cache": _cache_counts()}
    if tracer is not None:
        info["trace"] = tracer.summary()
    sys.stderr.write("BENCH " + json.dumps(info) + "\n")
    return rc


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_VALUE_OPS = ("wp", "zeta_aux", "delta2")  # EvalResult: must be Finite at guarded points


def _call(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - every failure is classified below
        return None, exc


def run_visit(wz, v: dict) -> dict:
    """The eight calls of one visit; a call whose input failed is skipped."""
    u, lam = v["u"], v["lam"]
    out = {}
    lat, err = out["build_lattice"] = _call(wz.build_lattice, v["w1"], v["w3"])
    if err is not None:
        return out
    out["constants"] = _call(wz.constants, lat)
    out["wp"] = _call(wz.wp, lat, u)
    out["zeta_aux"] = _call(wz.zeta_aux, lat, lam, u, wz.ZetaRoute.QSERIES)
    out["delta2"] = _call(wz.delta2, lat, v["pair"][0], v["pair"][1], u)
    params, err = out["jacobi_params"] = _call(wz.jacobi_params, lat)
    if err is None:
        out["sn_cn_dn"] = _call(wz.sn_cn_dn, params, params.scale * u)
    out["jacobi_E_Z_Pi"] = _call(wz.jacobi_E_Z_Pi, lat, u, v["a"])
    return out


def classify(wz, op: str, out: dict) -> str:
    """ok | typed | untyped | status | blocked."""
    if op not in out:
        return "blocked"
    value, err = out[op]
    if err is not None:
        return "typed" if isinstance(err, wz.WeierzetaError) else "untyped"
    if op in _VALUE_OPS and not value.is_finite:
        return "status"
    return "ok"


def _outputs(out: dict) -> dict:
    """JSON form of a checked visit's results."""
    rec = {}
    for op, (value, err) in out.items():
        if err is not None:
            rec[op] = {"error": type(err).__name__}
        elif op == "constants":
            rec[op] = {f: _pair(getattr(value, f)) for f in
                       ("e1", "e2", "e3", "eta1", "eta2", "eta3", "g2", "g3", "disc")}
        elif op in _VALUE_OPS:
            rec[op] = {"value": _pair(value.value), "status": value.status.value}
        elif op in ("sn_cn_dn", "jacobi_E_Z_Pi"):
            rec[op] = {"value": [_pair(x) for x in value]}
    return rec


def run_sweep(seed: int, seconds: float | None, visits: int | None,
              trace: bool) -> dict:
    """The sweep's closed loop.  Operations are counted over the first
    rotation (SWEEP_POINTS cycles, every lattice with every argument set
    once), so the counts depend on the seed alone and not on how many
    cycles fit in the run; later cycles repeat the same inputs, and an
    outcome that differs from the first rotation's is a mismatch."""
    tracer = tracer_mod.install() if trace else None
    import weierzeta as wz

    inputs = common.SweepInputs(seed)
    kinds = {k: 0 for k in ("ok", "typed", "untyped", "status", "blocked")}
    errors: dict[str, int] = {}
    latencies = []
    checked = []
    outcomes: dict[tuple, tuple] = {}
    mismatches = 0
    seen = set()
    revisits = 0
    cal = []
    pool_size = len(inputs.pool)
    rotation = common.SWEEP_POINTS * pool_size
    deadline = clock() + seconds if seconds is not None else None
    i = 0
    # A timed run ends on a cycle boundary, so every lattice is visited
    # equally often, and never before the first rotation is complete.
    while i < visits if deadline is None else (clock() < deadline or i % pool_size or i < rotation):
        if i % pool_size == 0:  # calibrations bracket every cycle
            cal.append(common.calibrate())
        v = inputs.visit(i)
        t0 = clock()
        out = run_visit(wz, v)
        latencies.append(clock() - t0)
        revisits += v["lattice"] in seen
        seen.add(v["lattice"])
        outcome = []
        for op in common.SWEEP_OPS:
            kind = classify(wz, op, out)
            key = f"{op}:{type(out[op][1]).__name__}" if kind in ("typed", "untyped") else f"{op}:{kind}"
            outcome.append(key)
            if i < rotation:
                kinds[kind] += 1
                if kind != "ok":
                    errors[key] = errors.get(key, 0) + 1
        inputs_key = (v["lattice"], v["u"], v["a"])
        if i < rotation:
            outcomes[inputs_key] = tuple(outcome)
        elif outcomes[inputs_key] != tuple(outcome):
            mismatches += 1
        if v["checked"]:
            checked.append({"i": i, "outputs": _outputs(out)})
        i += 1
    cal.append(common.calibrate())
    result = {
        "visits": i,
        "latencies_s": latencies,
        "calibration_s": cal,
        "kinds": kinds,
        "errors": errors,
        "repeat_mismatches": mismatches,
        "checked": checked,
        "revisit_share": revisits / i,
        "cache": _cache_counts(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


# ---------------------------------------------------------------------------
# micro
# ---------------------------------------------------------------------------


def per_call_us(fn, args_list, blocks: int = 5, min_block_s: float = 0.02) -> float:
    """Median over blocks of the mean time per call, in microseconds."""
    reps = 1
    while True:
        t0 = clock()
        for _ in range(reps):
            for args in args_list:
                fn(*args)
        if clock() - t0 >= min_block_s or reps >= 1 << 12:
            break
        reps *= 2
    times = []
    for _ in range(blocks):
        t0 = clock()
        for _ in range(reps):
            for args in args_list:
                fn(*args)
        times.append((clock() - t0) / (reps * len(args_list)))
    return common.median(times) * 1e6


def run_micro(seed: int, verify_n: int, verify_seed: int) -> dict:
    import weierzeta as wz
    from weierzeta.lattice import nearest_translate

    rng = random.Random(f"micro:{seed}")
    w1, w3 = common.reference_lattice("generic")
    lat = wz.build_lattice(w1, w3)
    wz.constants(lat)
    basis = common.reduced_basis(w1, w3)
    pts = [common.guarded_point(rng, w1, w3, basis) for _ in range(16)]
    far = [u + 2 * rng.randint(-3, 3) * w1 + 2 * rng.randint(-3, 3) * w3 for u in pts]
    lams = [1 + k % 3 for k in range(len(pts))]
    pairs = [((1, 2), (2, 3), (3, 1))[k % 3] for k in range(len(pts))]
    params = wz.jacobi_params(lat)
    tau = lat.tau
    vs = [u / (2 * w1) for u in pts]
    m = {}

    taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.5)) for _ in range(200)]
    m["lattice.build_lattice_us"] = per_call_us(wz.build_lattice, [(0.5, 0.5 * t) for t in taus[:16]])
    fresh = [wz.build_lattice(0.5, 0.5 * t) for t in taus]
    cold = []
    for block in range(5):
        chunk = fresh[block * 40:(block + 1) * 40]
        t0 = clock()
        for fl in chunk:
            wz.constants(fl)
        cold.append((clock() - t0) / len(chunk))
    m["lattice.constants_cold_us"] = common.median(cold) * 1e6
    m["lattice.reduce_to_cell_us"] = per_call_us(wz.reduce_to_cell, [(lat, u) for u in far])
    m["lattice.nearest_translate_us"] = per_call_us(nearest_translate, [(lat, u, 0j) for u in far])

    m["theta.theta_eval_us"] = per_call_us(wz.theta_eval, [(k % 4, v, tau) for k, v in enumerate(vs)])
    m["theta.theta_dlog_us"] = per_call_us(wz.theta_dlog, [(k % 4, v, tau) for k, v in enumerate(vs)])
    m["theta.theta_nullwerte_us"] = per_call_us(wz.theta_nullwerte, [(tau,)])

    m["weier_core.sigma_us"] = per_call_us(wz.sigma, [(lat, u) for u in far])
    m["weier_core.sigma_aux_us"] = per_call_us(wz.sigma_aux, [(lat, l, u) for l, u in zip(lams, far)])
    m["weier_core.zeta_w_us"] = per_call_us(wz.zeta_w, [(lat, u) for u in far])
    m["weier_core.wp_us"] = per_call_us(wz.wp, [(lat, u) for u in far])
    m["weier_core.wp_prime_us"] = per_call_us(wz.wp_prime, [(lat, u) for u in far])

    for route in wz.ZetaRoute:
        args = [(lat, l, u, route) for l, u in zip(lams, far)]
        if route is wz.ZetaRoute.PARTIAL_FRACTION:
            args = args[:3]
        m[f"aux_zeta.zeta_aux_{route.value}_us"] = per_call_us(wz.zeta_aux, args)

    for route in wz.DeltaRoute:
        m[f"zeta_diff.delta_{route.value}_us"] = per_call_us(
            wz.delta, [(lat, l, u, route) for l, u in zip(lams, far)])
        m[f"zeta_diff.delta2_{route.value}_us"] = per_call_us(
            wz.delta2, [(lat, p[0], p[1], u, route) for p, u in zip(pairs, far)])
    m["zeta_diff.delta_prime_us"] = per_call_us(wz.delta_prime, [(lat, l, u) for l, u in zip(lams, far)])
    m["zeta_diff.delta2_prime_us"] = per_call_us(
        wz.delta2_prime, [(lat, p[0], p[1], u) for p, u in zip(pairs, far)])
    m["zeta_diff.constants_from_deltas_us"] = per_call_us(wz.constants_from_deltas, [(lat, u) for u in pts])

    m["jacobi.jacobi_params_us"] = per_call_us(wz.jacobi_params, [(lat,)])
    m["jacobi.sn_cn_dn_us"] = per_call_us(wz.sn_cn_dn, [(params, params.scale * u) for u in pts])
    m["jacobi.jacobi_E_Z_Pi_us"] = per_call_us(
        wz.jacobi_E_Z_Pi, [(lat, u, a) for u, a in zip(pts, reversed(pts))][:8])

    suite = wz.default_suite()
    for name in common.REFERENCE_TAUS:
        rl = wz.build_lattice(*common.reference_lattice(name))
        t0 = clock()
        wz.run_suite(rl, suite, n=verify_n, seed=verify_seed)
        m[f"verify.run_suite_s.{name}"] = clock() - t0
    return {"metrics": m}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_cli.add_argument("rest", nargs=argparse.REMAINDER)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--seconds", type=float, default=None)
    p_sweep.add_argument("--visits", type=int, default=None)
    p_sweep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_micro = sub.add_parser("micro")
    p_micro.add_argument("--seed", type=int, required=True)
    p_micro.add_argument("--verify-n", type=int, required=True)
    p_micro.add_argument("--verify-seed", type=int, required=True)
    args = parser.parse_args(argv)

    if args.cmd == "cli":
        rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
        return run_cli(rest, bool(args.trace))
    if args.cmd == "sweep":
        if (args.seconds is None) == (args.visits is None):
            parser.error("sweep needs exactly one of --seconds and --visits")
        result = run_sweep(args.seed, args.seconds, args.visits, bool(args.trace))
    else:
        result = run_micro(args.seed, args.verify_n, args.verify_seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
