"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import io
import random
import time
from contextlib import redirect_stdout

from weierzeta import (
    ZetaRoute,
    constants,
    constants_from_deltas,
    delta,
    delta2,
    delta2_prime,
    delta_prime,
    default_suite,
    eisenstein_invariants,
    jacobi_E_Z_Pi,
    jacobi_params,
    run_suite,
    sn_cn_dn,
    zeta_aux,
)
from weierzeta.cli import main as cli_main

from conftest import (
    RECTANGULAR,
    REFERENCE_TAUS,
    check_cor212,
    check_thm211,
    guarded_points,
    make_lattice,
    suite_residuals,
)

ALL_LATTICES = sorted(REFERENCE_TAUS)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_cross_route_zeta_agreement():
    t0 = time.monotonic()
    worst_fast = 0.0
    worst_pf = 0.0
    for name in ALL_LATTICES:
        lat = make_lattice(name)
        rng = random.Random(2024)
        for lam in (1, 2, 3):
            pts = guarded_points(
                lat, rng, 100, guard=0.02, offsets=(lat.half_period(lam),)
            )
            for u in pts:
                sh = zeta_aux(lat, lam, u, ZetaRoute.SHIFT).value
                th = zeta_aux(lat, lam, u, ZetaRoute.THETA).value
                qe = zeta_aux(lat, lam, u, ZetaRoute.QSERIES).value
                pf = zeta_aux(lat, lam, u, ZetaRoute.PARTIAL_FRACTION).value
                scale = max(abs(sh), abs(th), abs(qe), 1e-30)
                worst_fast = max(
                    worst_fast,
                    abs(sh - th) / scale,
                    abs(sh - qe) / scale,
                    abs(th - qe) / scale,
                )
                worst_pf = max(worst_pf, abs(pf - sh) / max(abs(sh), 1.0))
    elapsed = time.monotonic() - t0
    ok = worst_fast <= 1e-10 and worst_pf <= 1e-5 and elapsed < 10.0
    _report(
        1,
        "cross-route zeta agreement",
        ok,
        f"fast={worst_fast:.2e} (tol 1e-10), partialfrac={worst_pf:.2e} (tol 1e-5), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_full_identity_suite():
    suite = default_suite()
    assert len(suite) >= 30
    t0 = time.monotonic()
    failed = []
    for name in ALL_LATTICES:
        lat = make_lattice(name)
        reports = run_suite(lat, suite, n=100, seed=20240808)
        failed += [(name, r.name, r.max_rel) for r in reports if not r.passed]
    elapsed = time.monotonic() - t0
    ok = not failed and elapsed < 60.0
    _report(
        2,
        f"full identity suite ({len(suite)} identities, n=100, 5 lattices)",
        ok,
        f"failures={failed[:4]}, {elapsed:.1f}s (<60s)",
    )


def test_criterion_3_u_independent_constant_recovery():
    worst = 0.0
    for name in ALL_LATTICES:
        lat = make_lattice(name)
        lc = constants(lat)
        rng = random.Random(31415)
        escale = max(abs(lc.e1), abs(lc.e2), abs(lc.e3))
        for u in guarded_points(lat, rng, 20, guard=0.05):
            rec = constants_from_deltas(lat, u)
            worst = max(
                worst,
                abs(rec.e1 - lc.e1) / escale,
                abs(rec.e2 - lc.e2) / escale,
                abs(rec.e3 - lc.e3) / escale,
                abs(rec.g2 - lc.g2) / escale**2,
                abs(rec.g3 - lc.g3) / escale**3,
                abs(rec.disc - lc.disc) / escale**6,
            )
    ok = worst <= 1e-9
    _report(3, "constants from deltas, 20 points/lattice", ok, f"worst rel={worst:.2e} (tol 1e-9)")


def test_criterion_4_eisenstein_oracle():
    worst = 0.0
    for name in ALL_LATTICES:
        lat = make_lattice(name)
        lc = constants(lat)
        escale = max(abs(lc.e1), abs(lc.e2), abs(lc.e3))
        g2s, g3s = eisenstein_invariants(lat, 200)
        worst = max(
            worst,
            abs(g2s - lc.g2) / max(abs(lc.g2), escale**2),
            abs(g3s - lc.g3) / max(abs(lc.g3), escale**3),
        )
    ok = worst <= 1e-6
    _report(4, "Eisenstein sums at shell radius 200", ok, f"worst rel={worst:.2e} (tol 1e-6)")


def test_criterion_5_derivative_oracles():
    h = 1e-5
    worst = 0.0
    count = 0
    for name in ALL_LATTICES:
        lat = make_lattice(name)
        rng = random.Random(27182)
        for u in guarded_points(lat, rng, 10, guard=0.15):
            count += 1
            for lam in (1, 2, 3):
                fd = (
                    delta(lat, lam, u + h).value - delta(lat, lam, u - h).value
                ) / (2 * h)
                worst = max(worst, abs(fd - delta_prime(lat, lam, u).value))
            for lam, mu in ((1, 2), (2, 3)):
                fd = (
                    delta2(lat, lam, mu, u + h).value - delta2(lat, lam, mu, u - h).value
                ) / (2 * h)
                worst = max(worst, abs(fd - delta2_prime(lat, lam, mu, u).value))
    ok = worst <= 1e-6 and count == 50
    _report(
        5,
        "derivative closed forms vs central differences",
        ok,
        f"worst abs={worst:.2e} (tol 1e-6) at {count} points, step {h:g}",
    )


def test_criterion_6_jacobi_rows_and_identities():
    worst_rows = 0.0
    for name in RECTANGULAR:
        lat = make_lattice(name)
        rng = random.Random(16180)
        w1 = lat.omega1.real
        for _ in range(20):
            u = rng.uniform(0.08 * w1, 0.92 * w1)
            worst_rows = max(worst_rows, max(check_thm211(lat, u)), max(check_cor212(lat, u)))
    worst_sq = 0.0
    worst_pyth = 0.0
    for name in ALL_LATTICES:
        lat = make_lattice(name)
        lc = constants(lat)
        p = jacobi_params(lat)
        rng = random.Random(14142)
        for u in guarded_points(lat, rng, 10, guard=0.06):
            worst_sq = max(worst_sq, max(suite_residuals(lat, "thm211_squared_*", (u,))))
        for u in guarded_points(lat, rng, 50, guard=0.05):
            s, c, d = sn_cn_dn(p, p.scale * u)
            worst_pyth = max(
                worst_pyth, abs(s * s + c * c - 1), abs(d * d + lc.ksq * s * s - 1)
            )
    ok = worst_rows <= 1e-9 and worst_sq <= 1e-9 and worst_pyth <= 1e-11
    _report(
        6,
        "Jacobi transformation rows",
        ok,
        f"rows={worst_rows:.2e} (tol 1e-9), squared rel={worst_sq:.2e} (tol 1e-9), "
        f"pythagorean={worst_pyth:.2e} (tol 1e-11)",
    )


def test_criterion_7_E_Z_Pi():
    h = 1e-6
    worst_fd = 0.0
    for name in ALL_LATTICES:
        lat = make_lattice(name)
        p = jacobi_params(lat)
        rng = random.Random(17320)
        for u in guarded_points(lat, rng, 10, guard=0.1, offsets=(lat.omega3,)):
            Ep = jacobi_E_Z_Pi(lat, u + h, 0.2)[0]
            Em = jacobi_E_Z_Pi(lat, u - h, 0.2)[0]
            _, _, d = sn_cn_dn(p, p.scale * u)
            worst_fd = max(worst_fd, abs((Ep - Em) / (2 * h) - p.scale * d * d))
    worst_zk = 0.0
    for name in RECTANGULAR:
        lat = make_lattice(name)
        worst_zk = max(worst_zk, abs(jacobi_E_Z_Pi(lat, lat.omega1, 0.1)[1]))
    pi_exact = all(
        jacobi_E_Z_Pi(make_lattice(name), 0.0, 0.13 + 0.04j)[2] == 0
        for name in ALL_LATTICES
    )
    ok = worst_fd <= 1e-6 and worst_zk <= 1e-9 and pi_exact
    _report(
        7,
        "E derivative, Z(K), Pi(0, a)",
        ok,
        f"dE={worst_fd:.2e} (tol 1e-6), Z(K)={worst_zk:.2e} (tol 1e-9), Pi(0,a)==0: {pi_exact}",
    )


def test_criterion_8_verify_determinism():
    argv = ["verify", "--n", "5", "--seed", "97", "--tau", "0.3,1.1"]
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main(argv)
        assert rc == 0
        outputs.append(buf.getvalue().encode())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 100
    _report(8, "cmd_verify byte determinism", ok, f"{len(outputs[0])} bytes compared equal: {ok}")
