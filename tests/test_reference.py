"""Library values against bench/reference.py's 30-digit mpmath values, and
Pi against a quadrature of its defining integral."""

import json
import math
import random
from itertools import permutations

import pytest

from weierzeta import jacobi
from weierzeta import (
    DeltaRoute,
    ZetaRoute,
    build_lattice,
    constants,
    delta,
    delta2,
    delta2_prime,
    delta_prime,
    jacobi_E_Z,
    jacobi_E_Z_Pi,
    jacobi_params,
    sigma,
    sigma_aux,
    sn_cn_dn,
    wp,
    wp_prime,
    zeta_aux,
    zeta_w,
)

from conftest import REFERENCE_TAUS, guarded_points
from test_cli import run_cli


@pytest.mark.parametrize("height", [5, 6, 8, 10])
def test_disc_and_ksq_on_tall_lattices(reference, height):
    # The g-form discriminant and (e2 - e3)/(e1 - e3) cancel here: 8.4e-6
    # and 4.9e-12 relative error at 5i, 2.4e8 and 4.0e-4 at 10i.
    lc = constants(build_lattice(0.5, 0.5j * height))
    ref = reference.LatticeRef(0.5, 0.5j * height)
    ksq_ref = (ref.e2 - ref.e3) / (ref.e1 - ref.e3)
    assert reference.rel_error(lc.disc, ref.disc, 1e-300) <= 1e-14
    assert reference.rel_error(lc.ksq, ksq_ref, 1e-300) <= 1e-14


# The odd theta and theta_1 are of size |q|^(1/4) at ordinary points of a
# tall lattice (3.7e-14 at 40i), so only the exact zero may be refused.
TALL = [40, 60]
POINTS = [0.13 + 0.21j, -0.37 + 0.06j, 0.21 - 1.3j]


def _check(reference, ref, got, expected, weight=1):
    assert got.is_finite
    assert reference.rel_error(got.value, expected, ref.unit**weight) <= 1e-9


def _wp_prime(reference, ref, u):
    """wp'(u) from the reference's odd theta and its first three derivatives."""
    z = ref.c * u
    t = [reference.mp.jtheta(1, z, ref.q, k) for k in range(4)]
    d1, d2, d3 = t[1] / t[0], t[2] / t[0], t[3] / t[0]
    return -ref.c**3 * (d3 - 3 * d2 * d1 + 2 * d1**3)


@pytest.mark.parametrize("height", TALL)
def test_log_derivative_routes_on_very_tall_lattices(reference, height):
    lat = build_lattice(0.5, 0.5j * height)
    ref = reference.LatticeRef(0.5, 0.5j * height)
    for u in POINTS:
        _check(reference, ref, zeta_w(lat, u), ref.zeta(u))
        for lam in (1, 2, 3):
            _check(reference, ref, zeta_aux(lat, lam, u, ZetaRoute.THETA), ref.zeta_aux(lam, u))
            _check(
                reference, ref, delta(lat, lam, u, DeltaRoute.ZETA_DIFF),
                ref.zeta_aux(lam, u) - ref.zeta(u),
            )
        for lam, mu in ((1, 2), (2, 3), (3, 1)):
            _check(reference, ref, delta2(lat, lam, mu, u, DeltaRoute.ZETA_DIFF), ref.delta2(lam, mu, u))


@pytest.mark.parametrize("height", TALL)
def test_cli_eval_zeta_on_very_tall_lattices(reference, height):
    rc, out, err = run_cli(["eval", "--fn", "zeta", "--tau", f"0,{height}", "--u", "0.13,0.21"])
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["status"] == "Finite"
    ref = reference.LatticeRef(0.5, 0.5j * height)
    got = complex(*payload["value"])
    assert reference.rel_error(got, ref.zeta(0.13 + 0.21j), ref.unit) <= 1e-9


@pytest.mark.parametrize("eps", [6e-4, 1.1e-3, 1.5e-3, 2e-3])
def test_wp_forms_next_to_their_cancellation(reference, eps):
    # wp - e_k cancels next to omega_lam in delta's wp form and next to
    # omega_nu in delta2's: with a zone of 1e-3 min periods they were 4.0e-8,
    # 3.1e-8 and 1.7e-8 off on `tall` at the last three distances; at 6e-4
    # the smaller zones of the other lattices give way to the wp form.
    for tau in REFERENCE_TAUS.values():
        lat = build_lattice(0.5, 0.5 * tau)
        ref = reference.LatticeRef(0.5, 0.5 * tau)
        step = eps * (1 + 0.7j) * lat.min_period
        for lam, mu, nu in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 3, 2)):
            u = lat.half_period(lam) + step
            _check(reference, ref, delta(lat, lam, u, DeltaRoute.WP_QUOTIENT), ref.zeta_aux(lam, u) - ref.zeta(u))
            # Relative to the value itself, which vanishes at omega_nu.
            v = lat.half_period(nu) + step
            got = delta2(lat, lam, mu, v, DeltaRoute.WP_QUOTIENT)
            assert reference.rel_error(got.value, ref.delta2(lam, mu, v), 1e-300) <= 1e-9
            # And next to its other zero, u = 0, where nothing cancels: the wp
            # form serves from the pole radius out (1e-3 min periods out before).
            for w in (step, 1e-3 * step):
                got = delta2(lat, lam, mu, w, DeltaRoute.WP_QUOTIENT)
                assert reference.rel_error(got.value, ref.delta2(lam, mu, w), 1e-300) <= 1e-9


def test_sigma_quotients_deep_in_a_very_tall_cell(reference):
    # exp(eta1*u^2/(2*omega1)) underflows to 0 here; the quotients must not
    # form it (they raised ZeroDivisionError when every sigma carried it).
    lat = build_lattice(0.5, 20j)
    ref = reference.LatticeRef(0.5, 20j)
    u = 0.21 + 16j
    _check(reference, ref, wp_prime(lat, u), _wp_prime(reference, ref, u), weight=3)
    _check(reference, ref, delta2(lat, 1, 2, u), ref.delta2(1, 2, u))
    _check(reference, ref, delta(lat, 3, u), ref.zeta_aux(3, u) - ref.zeta(u))


@pytest.mark.parametrize("height", [8, 16])
def test_e_differences_that_cancel(reference, height):
    # e2 - e3 is of order |q| e1 here: taken as a difference of rounded e's
    # it made Delta_{2,3} 5.5e-7 off at 8i and 100% off at 16i.  The
    # reference runs at 60 digits: at 30 its own zeta_2 - zeta_3 is 5.8e-10
    # off at 16i.
    lat = build_lattice(0.5, 0.5j * height)
    with reference.mp.workdps(60):
        ref = reference.LatticeRef(0.5, 0.5j * height)
        for u in POINTS:
            want = ref.delta2(2, 3, u)
            for route in (DeltaRoute.WP_QUOTIENT, DeltaRoute.SIGMA_QUOTIENT):
                got = delta2(lat, 2, 3, u, route)
                assert got.is_finite
                assert reference.rel_error(got.value, want, 1e-300) <= 1e-9, route
            got = delta2_prime(lat, 2, 3, u)
            want = ref.wp(u + ref.w3) - ref.wp(u + ref.w2)
            assert got.is_finite
            assert reference.rel_error(got.value, want, 1e-300) <= 1e-9


class LostToCancellation(Exception):
    """A derivative with status Finite is off its reference by more than
    1e-9 of its own size."""


# Points far from the real axis of tall lattices (the last one nearer it),
# where Delta'_1 = wp(u) - wp(u + omega1) is exponentially small: 3.7e-9 at
# 8i, 5.5e-19 at 16i, 1.9e-48 at 40i.  The closed form r - A/r (r = wp - e1,
# A = (e1 - e2)(e1 - e3)) cancels there: Delta'_1 is 1.4e-6 relative off
# at 8i, and reads 0 at 16i and -3.6e-15 at 40i.  Delta'_{1,2} and Delta'_{3,1} lose 1.3e-5 at
# the last point.  The other entries keep 1e-9 at every point.
TALL_DERIVATIVE_POINTS = {
    "8i": (8j, 0.3 + 3.6j), "16i": (16j, 0.3 + 7.2j), "40i": (40j, 0.3 + 18j), "40i-low": (40j, 0.13 + 4.2j),
}
CANCELS = {(label, "delta1_prime") for label in TALL_DERIVATIVE_POINTS} | {
    ("40i-low", "delta12_prime"), ("40i-low", "delta31_prime"),
}


def _tall_derivative_cases():
    mark = pytest.mark.xfail(
        strict=True, raises=LostToCancellation,
        reason="ROADMAP item 21: Delta'_1 by r - A/r cancels where it is exponentially small",
    )
    for label in TALL_DERIVATIVE_POINTS:
        for entry, pair in [(f"delta{k}_prime", (k,)) for k in (1, 2, 3)] + [
            (f"delta{i}{j}_prime", (i, j)) for i, j in ((1, 2), (2, 3), (3, 1))
        ]:
            marks = mark if (label, entry) in CANCELS else ()
            yield pytest.param(label, pair, id=f"{label}-{entry}", marks=marks)


@pytest.mark.parametrize("label, pair", list(_tall_derivative_cases()))
def test_derivatives_where_they_are_exponentially_small(reference, label, pair):
    # Relative to the value itself, against the reference at 120 digits.
    tau, u = TALL_DERIVATIVE_POINTS[label]
    lat = build_lattice(0.5, 0.5 * tau)
    with reference.mp.workdps(120):
        ref = reference.LatticeRef(lat.omega1, lat.omega3)
        if len(pair) == 1:
            got = delta_prime(lat, pair[0], u)
            want = ref.wp(u) - ref.wp(u + ref.half_period(pair[0]))
        else:
            got = delta2_prime(lat, *pair, u)
            want = ref.wp(u + ref.half_period(pair[1])) - ref.wp(u + ref.half_period(pair[0]))
        err = reference.rel_error(got.value, want, 1e-300)
    assert got.is_finite
    if err > 1e-9:
        raise LostToCancellation(f"{got.value!r} against {complex(want)!r}: {err:.2g} relative")


def test_Z_in_another_basis(reference):
    # The ST image of the generic lattice, omega1' = omega1 + omega3 and
    # omega3' = -omega1: scale*omega1' is not K there, and Z by the paper's
    # zeta_3 form was 0.14 to 1.9 off.
    w1, w3 = 0.5, 0.5 * REFERENCE_TAUS["generic"]
    lat = build_lattice(w1 + w3, -w1)
    ref = reference.LatticeRef(w1 + w3, -w1)
    for a, b in ((0.23, 0.31), (-0.41, 0.12), (0.37, -0.28)):
        u = 2 * a * lat.omega1 + 2 * b * lat.omega3
        big_e, big_z = jacobi_E_Z(lat, u)
        want_e, want_z = ref.jacobi_E_Z(u)
        assert reference.rel_error(big_e, want_e, 1) <= 1e-12
        assert reference.rel_error(big_z, want_z, 1) <= 1e-12


@pytest.mark.parametrize(
    "tau", [*REFERENCE_TAUS.values(), 8j, 16j], ids=[*REFERENCE_TAUS, "8i", "16i"]
)
def test_zeta_aux_routes_against_60_digits(reference, tau):
    # Every route of the auxiliary zetas against the reference at 60 digits
    # (at 30 the reference's own zeta_2 - zeta_3 is 5.8e-10 off at 16i).
    # The partial fractions sum the whole coset; over a disc of 200 minimum
    # periods they were 0.9-6.3e-9 off on the five lattices, 2.0e-7 at 8i
    # and 7.0e-7 at 16i.
    lat = build_lattice(0.5, 0.5 * tau)
    tols = dict.fromkeys(ZetaRoute, 1e-13)
    tols[ZetaRoute.PARTIAL_FRACTION] = 1e-11 if tau in REFERENCE_TAUS.values() else 1e-9
    pts = guarded_points(lat, random.Random(repr(tau)), 4)
    with reference.mp.workdps(60):
        ref = reference.LatticeRef(0.5, 0.5 * tau)
        for u in pts:
            for lam in (1, 2, 3):
                want = ref.zeta_aux(lam, u)
                for route, tol in tols.items():
                    got = zeta_aux(lat, lam, u, route)
                    assert got.is_finite
                    assert reference.rel_error(got.value, want, ref.unit) <= tol, (route, lam, u)


def _sigma(reference, ref, u):
    """sigma(u) = exp(eta1 u^2 / (2 omega1)) theta1(c u) / (c theta1'(0)) by jtheta."""
    mp = reference.mp
    return mp.exp(ref.eta1 * u**2 / (2 * ref.w1)) * mp.jtheta(1, ref.c * u, ref.q) / (
        ref.c * mp.jtheta(1, 0, ref.q, 1)
    )


@pytest.mark.parametrize("name", list(REFERENCE_TAUS))
def test_core_functions_and_constants_against_60_digits(reference, name):
    # wp, zeta, sigma, the sigma_lam, e_lam, eta_lam, g2 and g3 on the five
    # lattices, each judged on its natural unit: g3 vanishes on the square
    # lattice and g2 on the rhombic one, so those two take |e1|^2 and |e1|^3.
    lat = build_lattice(0.5, 0.5 * REFERENCE_TAUS[name])
    lc = constants(lat)
    pts = guarded_points(lat, random.Random(name), 4)
    with reference.mp.workdps(60):
        ref = reference.LatticeRef(lat.omega1, lat.omega3)
        e1 = abs(ref.e1)
        errs = {
            "g2": reference.rel_error(lc.g2, ref.g2, e1**2),
            "g3": reference.rel_error(lc.g3, ref.g3, e1**3),
        }
        for lam in (1, 2, 3):
            errs[f"e{lam}"] = reference.rel_error(lc.e(lam), (ref.e1, ref.e2, ref.e3)[lam - 1], e1)
            errs[f"eta{lam}"] = reference.rel_error(lc.eta(lam), ref.eta(lam), ref.unit)
        for u in pts:
            for label, got, want, floor in (
                ("wp", wp(lat, u), ref.wp(u), ref.unit**2),
                ("zeta", zeta_w(lat, u), ref.zeta(u), ref.unit),
            ):
                assert got.is_finite, (label, u)
                errs[f"{label} {u}"] = reference.rel_error(got.value, want, floor)
            errs[f"sigma {u}"] = reference.rel_error(sigma(lat, u), _sigma(reference, ref, u), 1 / ref.unit)
            for lam in (1, 2, 3):
                w = ref.half_period(lam)
                want = reference.mp.exp(-ref.eta(lam) * u) * _sigma(reference, ref, u + w) / _sigma(reference, ref, w)
                errs[f"sigma{lam} {u}"] = reference.rel_error(sigma_aux(lat, lam, u), want, 1)
    assert max(errs.values()) <= reference.REL_TOL, max(errs, key=errs.get)


@pytest.mark.parametrize("name", list(REFERENCE_TAUS))
def test_zeta_differences_and_jacobi_against_60_digits(reference, name):
    # Delta_lam and Delta_{lam,mu} on every route and for all six ordered
    # pairs, their derivatives against differences of wp, sn, cn and dn
    # against mpmath's ellipfun, and E and Z, on the five lattices.
    # Weight-1 values are judged on the lattice's unit, the derivatives on
    # its square, the Jacobi values on 1.
    lat = build_lattice(0.5, 0.5 * REFERENCE_TAUS[name])
    params = jacobi_params(lat)
    pts = guarded_points(lat, random.Random(name), 4)
    errs = {}

    def check(label, got, want, floor):
        assert got.is_finite, label
        errs[label] = reference.rel_error(got.value, want, floor)

    with reference.mp.workdps(60):
        ref = reference.LatticeRef(lat.omega1, lat.omega3)
        unit = ref.unit
        for u in pts:
            wp_u, zeta_u = ref.wp(u), ref.zeta(u)
            aux = {lam: ref.zeta_aux(lam, u) for lam in (1, 2, 3)}
            shifted = {lam: ref.wp(u + ref.half_period(lam)) for lam in (1, 2, 3)}
            for lam in (1, 2, 3):
                for route in DeltaRoute:
                    check(f"delta{lam} {route.value} {u}", delta(lat, lam, u, route), aux[lam] - zeta_u, unit)
                check(f"delta_prime{lam} {u}", delta_prime(lat, lam, u), wp_u - shifted[lam], unit**2)
            for lam, mu in permutations((1, 2, 3), 2):
                for route in DeltaRoute:
                    got = delta2(lat, lam, mu, u, route)
                    check(f"delta{lam}{mu} {route.value} {u}", got, aux[lam] - aux[mu], unit)
                got = delta2_prime(lat, lam, mu, u)
                check(f"delta{lam}{mu}_prime {u}", got, shifted[mu] - shifted[lam], unit**2)
            for label, got, want in zip(("sn", "cn", "dn"), sn_cn_dn(params, params.scale * u), ref.sn_cn_dn(u)):
                errs[f"{label} {u}"] = reference.rel_error(got, want, 1)
            for label, got, want in zip(("E", "Z"), jacobi_E_Z(lat, u), ref.jacobi_E_Z(u)):
                errs[f"{label} {u}"] = reference.rel_error(got, want, 1)
    assert max(errs.values()) <= reference.REL_TOL, max(errs, key=errs.get)


def _gauss_legendre(n: int) -> list:
    """(node, weight) of the n-point Gauss-Legendre rule on [-1, 1], by
    Newton's method on the Legendre recurrence."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(8):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            x -= p1 / dp
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return rule


GAUSS_8 = _gauss_legendre(8)


def test_gauss_legendre_rule_is_exact_to_degree_15():
    for deg in range(16):
        want = 2 / (deg + 1) if deg % 2 == 0 else 0.0
        assert abs(math.fsum(w * x**deg for x, w in GAUSS_8) - want) <= 1e-15, deg


def _pi_quadrature(p, x: complex, alpha: complex, panels: int) -> complex:
    """Jacobi's Pi(x, alpha), the integral of k^2 sn(a) cn(a) dn(a) sn^2(t) /
    (1 - k^2 sn^2(a) sn^2(t)) along the segment t from 0 to x, by the
    8-point Gauss-Legendre rule on each of `panels` equal panels, with sn,
    cn and dn from sn_cn_dn."""
    ksq = p.k * p.k
    sa, ca, da = sn_cn_dn(p, alpha)
    total = 0j
    for j in range(panels):
        for node, w in GAUSS_8:
            sn2 = sn_cn_dn(p, (j + (node + 1) / 2) / panels * x)[0] ** 2
            total += w * sn2 / (1 - ksq * sa * sa * sn2)
    return ksq * sa * ca * da * total * x / (2 * panels)


class OffByPiI(Exception):
    """Pi is off its defining integral by a nonzero multiple of pi*i."""


def _pi_pairs():
    # Four guarded (u, a) pairs on each reference lattice, u the points the
    # 60-digit tests above use; then the pairs measured off by pi*i: on rect
    # (tau = 2i) and on tall (tau = 0.1+3i), points the guard accepts.
    off = {("tall", 3)}
    mark = pytest.mark.xfail(
        strict=True, raises=OffByPiI,
        reason="ROADMAP item 5: the tracker misses a step that winds by 2*pi",
    )
    for name in REFERENCE_TAUS:
        lat = build_lattice(0.5, 0.5 * REFERENCE_TAUS[name])
        pts = guarded_points(lat, random.Random(name), 8)
        for i, (u, a) in enumerate(zip(pts[:4], pts[4:])):
            yield pytest.param(name, u, a, id=f"{name}-{i}", marks=mark if (name, i) in off else ())
    for name, u, a in (
        ("rect", 0.25935401432800764 + 0.46866192209339275j, 0.9956448355104628 + 0.9405270150448959j),
        ("rect", 0.62 + 1.48j, 0.8 + 1.89j),
        ("tall", 0.49 + 0.74j, 0.6 + 1.72j),
    ):
        yield pytest.param(name, u, a, id=f"{name}-u={u}", marks=mark)


@pytest.mark.parametrize("name, u, a", list(_pi_pairs()))
def test_Pi_against_its_defining_integral(name, u, a):
    # 41 panels, with 81 as the quadrature's own check; relative on a floor
    # of 1.  A value off by a whole multiple of pi*i is the tracker's known
    # fault, and raises OffByPiI; any other miss fails outright.
    lat = build_lattice(0.5, 0.5 * REFERENCE_TAUS[name])
    p = jacobi_params(lat)
    want = _pi_quadrature(p, p.scale * u, p.scale * a, 41)
    check = _pi_quadrature(p, p.scale * u, p.scale * a, 81)
    assert abs(want - check) <= 1e-10 * max(1.0, abs(want))
    got = jacobi_E_Z_Pi(lat, u, a)[2]
    if abs(got - want) <= 1e-9 * max(1.0, abs(want)):
        return
    turns = (got - want) / (1j * math.pi)
    if round(turns.real) and abs(turns - round(turns.real)) <= 1e-9:
        raise OffByPiI(f"Pi is {round(turns.real)}*pi*i off at u = {u!r}, a = {a!r}")
    pytest.fail(f"Pi is {got!r}, the integral {want!r}")


# Per reference lattice, the (u, a) of 40 guarded pairs (the first 40 and the
# next 40 of guarded_points under the seed "deep:<name>") whose tracker made
# the most sigma_3 evaluations among the pairs that match the 41-panel
# quadrature to 1e-9, and repr(jacobi_E_Z_Pi(lat, u, a)), recorded at commit
# 5bde8f7.  The deepest such pairs made 24 / 40 / 36 / 40 / 68 evaluations; a
# segment taken in one step makes 4.
PI_DEEP = {
    "square": (
        0.6641687827529777 + 0.628718087439008j,
        0.8057840081316099 + 0.2681084231332638j,
        "((1.3957223147394864+0.4380505034295283j), (-0.39838869007689937-1.2602979719774599j), "
        "(-2.5642780694935823-1.1831041447913409j))",
    ),
    "rect": (
        0.939477219802582 + 1.9596986970751988j,
        0.3408367180366314 + 1.2912940208201447j,
        "((2.926761124631085+4.124102599346903j), (-0.002851546939860672-1.986911073362477j), "
        "(3.984499499916467-2.138788130561089j))",
    ),
    "rhombic": (
        1.205980270863992 + 0.7857089731408391j,
        0.7142149689781622 + 0.8519828383127532j,
        "((3.4403359216218203-0.8425655416167279j), (-0.6374660859055408-2.174189280918731j), "
        "(-0.5276436029364424+2.44654076392473j))",
    ),
    "generic": (
        0.8218188519555252 + 1.028167195094849j,
        0.8707687494633224 + 0.8737498724543006j,
        "((2.4187462076160866+0.9383576994516907j), (-0.23117901975434751-1.821281236563943j), "
        "(0.5918748551450514-3.2310766860941964j))",
    ),
    "tall": (
        0.3787986485535458 + 2.7584589393641923j,
        0.8987722417379215 + 2.0788468217813305j,
        "((1.1910126774188434+6.664144535030511j), (0.00048307264182789744-1.9990316613416361j), "
        "(6.040433714972528-1.6347850788130662j))",
    ),
}


@pytest.mark.parametrize("name", list(PI_DEEP))
def test_Pi_bytes_where_the_tracker_bisects(monkeypatch, name):
    # The output digests pin Pi on the generic lattice alone, at points where
    # the tracker mostly takes the segment in one step.  These pairs bisect
    # deepest, so a change to the tracker's work (ROADMAP item 5) that moves
    # a byte of Pi fails here.
    u, a, want = PI_DEEP[name]
    lat = build_lattice(0.5, 0.5 * REFERENCE_TAUS[name])
    sigma = jacobi._sigma
    ks = []

    def counted(lc, p, k):
        ks.append(k)
        return sigma(lc, p, k)

    monkeypatch.setattr(jacobi, "_sigma", counted)
    got = jacobi_E_Z_Pi(lat, u, a)
    assert repr(got) == want
    assert ks.count(3) > 4
    p = jacobi_params(lat)
    quad = _pi_quadrature(p, p.scale * u, p.scale * a, 41)
    assert abs(got[2] - quad) <= 1e-9 * max(1.0, abs(quad))
