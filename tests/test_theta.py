"""Theta series against brute-force partial sums and classical identities."""

import cmath
import functools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weierzeta import DEFAULT_CONFIG, SeriesConfig, theta_dlog, theta_eval, theta_nullwerte
from weierzeta.errors import NearZeroDenominator, SeriesDivergence
from weierzeta import theta

PI = math.pi
TAUS = (1j, 2j, 0.3 + 1.1j, 0.5 + 0.8660254037844386j)
# A tall lattice and one with |q| = 0.88, sampled inside the reduced strip.
STRIP_TAUS = (0.1 + 3j, 0.45 + 0.04j)


def sample_points(tau: complex) -> list[complex]:
    if tau in TAUS:
        return [0.3, 0.17 - 0.05j, -0.4 + 0.3j]
    # alpha + beta*tau with |alpha|, |beta| <= 1/2: where a cell-reduced
    # argument u/(2*omega1) lies.
    return [a + b * tau for a, b in ((0.3, 0.0), (0.17, -0.05), (-0.4, 0.3), (0.45, -0.45))]


def theta_brute(idx: int, v: complex, tau: complex, n_max: int = 200, deriv: bool = False) -> complex:
    """Direct partial sum of the defining exponential series of
    theta_{idx+1} (DLMF 20.2.1-20.2.4; oracle); with deriv, the same sum
    differentiated term by term in v."""
    total = 0j
    for n in range(-n_max, n_max + 1):
        if idx in (0, 1):
            k = 2 * n + 1
            term = cmath.exp(1j * PI * tau * (n + 0.5) ** 2 + k * 1j * PI * v)
        else:
            k = 2 * n
            term = cmath.exp(1j * PI * tau * n * n + k * 1j * PI * v)
        if idx in (0, 3):
            term *= (-1) ** n
        total += 1j * PI * k * term if deriv else term
    return -1j * total if idx == 0 else total


@functools.lru_cache(maxsize=None)
def theta_brute_mp(v: complex, tau: complex) -> tuple:
    """The defining sums of theta_brute at 30 digits, for all four series and
    their v-derivatives at once: (indices 0..3, then their derivatives), and
    for each the rounding scale of the pass, the sum over its terms of (|k| + 1)|term|
    (term k comes out of |k| rotations)."""
    mpmath = pytest.importorskip("mpmath")
    a, y = PI * tau.imag / 4, PI * abs(v.imag)
    k_max = int((y + math.sqrt(y * y + 300 * a)) / (2 * a)) + 2  # |terms| < e^-75 beyond
    with mpmath.workdps(30):
        v_mp, tau_mp = mpmath.mpc(v), mpmath.mpc(tau)
        sums = [mpmath.mpc(0)] * 8
        scales = [0.0] * 8
        for k in range(-k_max, k_max + 1):
            term = mpmath.exp(1j * mpmath.pi * (tau_mp * k * k / 4 + k * v_mp))
            n = (k - 1) // 2 if k % 2 else k // 2
            for idx in ((0, 1) if k % 2 else (2, 3)):
                t = -term if idx in (0, 3) and n % 2 else term
                d = 1j * mpmath.pi * k * t
                sums[idx] += t
                sums[4 + idx] += d
                scales[idx] += (abs(k) + 1) * float(abs(t))
                scales[4 + idx] += (abs(k) + 1) * float(abs(d))
        sums[0] *= -1j
        sums[4] *= -1j
        return tuple(complex(x) for x in sums), tuple(scales)


# |q| from 8.1e-5 (tau = 0.1+3i) to 0.9.
ACCURACY_TAUS = TAUS + STRIP_TAUS + (1j * (-math.log(0.9) / PI),)
ACCURACY_CONFIGS = (
    DEFAULT_CONFIG,
    SeriesConfig(abs_tol=0.0, rel_tol=1e-15),
    SeriesConfig(abs_tol=1e-15, rel_tol=0.0),
)


def assert_within_tolerance(got, ref, scale, cfg, what):
    """Truncation within cfg's tolerance, on top of the pass's rounding: a
    few roundings per rotation, 8 eps * scale."""
    bound = cfg.abs_tol + cfg.rel_tol * abs(ref) + 8 * sys.float_info.epsilon * scale
    assert abs(got - ref) <= bound, what


@pytest.mark.parametrize("cfg", ACCURACY_CONFIGS, ids=["default", "rel-only", "abs-only"])
@pytest.mark.parametrize("tau", ACCURACY_TAUS)
def test_pass_within_tolerance_of_brute_force(tau, cfg):
    # Reduced arguments, on the edges |Im v| = Im(tau)/2 (where the terms
    # are largest) and inside.
    for v in [a + b * tau for a in (0.0, 0.3, -0.5) for b in (0.5, -0.5)] + [0.0, 0.17 - 0.05 * tau]:
        got = theta._theta4(v, tau, theta._quarter_nome(tau), cfg, deriv=True)
        refs, scales = theta_brute_mp(v, tau)
        for i in range(8):
            assert_within_tolerance(got[i], refs[i], scales[i], cfg, (v, i))
    # Unreduced arguments, through theta_eval and the derivative pass.
    for v in (0.3 + 1.7 * tau, -2.2 + 0.4 * tau, 0.8 - 1.3 * tau):
        refs, scales = theta_brute_mp(v, tau)
        derivs = theta._theta4(v, tau, theta._quarter_nome(tau), cfg, deriv=True)[4:]
        for idx in range(4):
            assert_within_tolerance(theta_eval(idx, v, tau, cfg), refs[idx], scales[idx], cfg, (v, idx))
            assert_within_tolerance(derivs[idx], refs[4 + idx], scales[4 + idx], cfg, (v, 4 + idx))


@pytest.mark.parametrize("tau", TAUS + STRIP_TAUS[:1])
def test_pass_omits_only_what_rounding_hides(tau):
    # The pass runs one step past the tolerance, so running it longer
    # changes no bit of any value or derivative on the reference lattices.
    longer = SeriesConfig(abs_tol=1e-40, rel_tol=1e-40)
    rng = random.Random(7)
    q4 = theta._quarter_nome(tau)
    for _ in range(200):
        v = rng.uniform(-0.5, 0.5) + rng.uniform(-0.5, 0.5) * tau
        assert theta._theta4(v, tau, q4, DEFAULT_CONFIG, True) == theta._theta4(v, tau, q4, longer, True), v


# Cell coordinates of v = alpha + beta*tau: inside the centred cell, and in
# the cells around it.
CELL_COORD = st.just(0.0) | st.floats(-0.5, 0.5) | st.floats(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(
    tau=st.sampled_from(TAUS + STRIP_TAUS + (8j,)),
    alpha=CELL_COORD,
    beta=CELL_COORD,
)
def test_derivative_pass_holds_the_plain_pass_bit_for_bit(tau, alpha, beta):
    # A located point keeps one theta pass, and a derivative pass serves its
    # plain requests: its first four entries must be the plain pass's bits.
    q4 = theta._quarter_nome(tau)
    for v in (0.0, alpha + beta * tau):
        try:
            plain = theta._theta4(v, tau, q4, DEFAULT_CONFIG)
        except SeriesDivergence:
            with pytest.raises(SeriesDivergence):
                theta._theta4(v, tau, q4, DEFAULT_CONFIG, deriv=True)
            continue
        full = theta._theta4(v, tau, q4, DEFAULT_CONFIG, deriv=True)
        assert len(full) == 8
        # repr round-trips every float and tells -0.0 from 0.0.
        assert [repr(t) for t in full[:4]] == [repr(t) for t in plain], v


def test_odd_series_vanishes_exactly_at_zero():
    assert theta_eval(0, 0.0, 0.3 + 1.1j) == 0


@pytest.mark.parametrize("tau", TAUS + STRIP_TAUS)
@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_index_is_dlmf_numbering(tau, idx):
    # Index k is DLMF's theta_{k+1}: mpmath.jtheta(k + 1, pi*v, q), and its
    # derivative in v is pi times jtheta's in z = pi*v.
    mpmath = pytest.importorskip("mpmath")
    q = cmath.exp(1j * PI * tau)
    for v in sample_points(tau):
        with mpmath.workdps(30):
            ref = complex(mpmath.jtheta(idx + 1, PI * v, q))
            dref = PI * complex(mpmath.jtheta(idx + 1, PI * v, q, derivative=1))
        full = theta._theta4(v, tau, theta._quarter_nome(tau), DEFAULT_CONFIG, deriv=True)
        assert abs(theta_eval(idx, v, tau) - ref) <= 1e-13 * max(1.0, abs(ref)), v
        assert abs(full[4 + idx] - dref) <= 1e-13 * max(1.0, abs(dref)), v
    with mpmath.workdps(30):
        assert all(
            abs(t - complex(mpmath.jtheta(k, 0, q))) <= 1e-13 * abs(t)
            for k, t in zip((2, 3, 4), theta_nullwerte(tau)[:3])
        )


@pytest.mark.parametrize("tau", TAUS + STRIP_TAUS)
def test_each_index_vanishes_on_its_half_period(tau):
    # v = 0, 1/2, (1 + tau)/2, tau/2: omega_k/(2*omega1) for k = 0..3.
    for idx, v in enumerate((0.0, 0.5, 0.5 + 0.5 * tau, 0.5 * tau)):
        scale = max(abs(theta_eval(k, v, tau)) for k in range(4))
        assert abs(theta_eval(idx, v, tau)) <= 1e-14 * scale, idx


def test_small_nome_limit_of_even_series():
    # Only the n=0 term survives as q -> 0.
    assert abs(theta_eval(2, 0.0, 40j) - 1) < 1e-50
    assert abs(theta_eval(3, 0.0, 40j) - 1) < 1e-50


@pytest.mark.parametrize("tau", TAUS + STRIP_TAUS)
@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_matches_brute_force_partial_sums(tau, idx):
    for v in sample_points(tau):
        ref = theta_brute(idx, v, tau)
        assert abs(theta_eval(idx, v, tau) - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.mark.parametrize("tau", TAUS + STRIP_TAUS)
@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_derivative_matches_term_differentiated_brute_force(tau, idx):
    for v in sample_points(tau):
        ref = theta_brute(idx, v, tau, deriv=True)
        got = theta._theta4(v, tau, theta._quarter_nome(tau), DEFAULT_CONFIG, deriv=True)[4 + idx]
        assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_derivative_matches_brute_force_differences(tau, idx):
    v, h = 0.21 + 0.07j, 1e-6
    fd = (theta_brute(idx, v + h, tau) - theta_brute(idx, v - h, tau)) / (2 * h)
    got = theta._theta4(v, tau, theta._quarter_nome(tau), DEFAULT_CONFIG, deriv=True)[4 + idx]
    assert abs(got - fd) < 1e-7


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(-0.45, 0.45),
    im=st.floats(-0.45, 0.45),
)
def test_parity(re, im):
    v = complex(re, im)
    tau = 0.3 + 1.1j
    assert abs(theta_eval(0, -v, tau) + theta_eval(0, v, tau)) < 1e-12
    for idx in (1, 2, 3):
        assert abs(theta_eval(idx, -v, tau) - theta_eval(idx, v, tau)) < 1e-12


@pytest.mark.parametrize("tau", TAUS)
def test_jacobi_identity_nullwerte(tau):
    t1, t2, t3, tp, _ = theta_nullwerte(tau)
    assert abs(tp - PI * t1 * t2 * t3) <= 1e-12 * abs(tp)


def test_leading_nullwert_derivative_as_q_vanishes():
    # theta'(0) -> 2*pi*q^(1/4) for small q.
    tau = 8j
    q = cmath.exp(1j * PI * tau)
    _, _, _, tp, _ = theta_nullwerte(tau)
    lead = 2 * PI * q**0.25
    assert abs(tp - lead) < 1e-9 * abs(lead)


def test_nullwerte_match_brute_force():
    tau = 1j
    t1, t2, t3, _, _ = theta_nullwerte(tau)
    assert abs(t1 - theta_brute(1, 0.0, tau)) < 1e-14 * abs(t1)
    assert abs(t2 - theta_brute(2, 0.0, tau)) < 1e-14
    assert abs(t3 - theta_brute(3, 0.0, tau)) < 1e-14 * abs(t3)


def test_dlog_odd_series_has_unit_residue():
    # theta'/theta behaves as 1/v near the origin.
    tau = 0.3 + 1.1j
    for v in (1e-3, 1e-4):
        assert abs(v * theta_dlog(0, v, tau) - 1) < 2e3 * v * v


def test_dlog_even_at_zero():
    assert theta_dlog(1, 0.0, 0.3 + 1.1j) == 0


def test_dlog_quasi_periodicity():
    tau = 0.3 + 1.1j
    v = 0.13 + 0.21j
    for idx in (0, 1, 2, 3):
        base = theta_dlog(idx, v, tau)
        assert abs(theta_dlog(idx, v + 1, tau) - base) < 1e-11
        assert abs(theta_dlog(idx, v + tau, tau) - (base - 2j * PI)) < 1e-10


def test_dlog_guard_raises_near_zero_of_denominator():
    with pytest.raises(NearZeroDenominator):
        theta_dlog(0, 0.0, 1j)


def test_term_budget_at_large_nome():
    # |q| = 0.9 still converges to abs 1e-15 within 64 terms.
    tau = 1j * (-math.log(0.9) / PI)
    cfg = SeriesConfig(abs_tol=1e-15, rel_tol=0.0, max_terms=64)
    val = theta_eval(2, 0.3, tau, cfg)
    ref = theta_brute(2, 0.3, tau, 400)
    assert abs(val - ref) < 1e-12 * abs(ref)


def test_series_divergence_when_budget_too_small():
    tau = 1j * (-math.log(0.9) / PI)
    cfg = SeriesConfig(abs_tol=1e-15, rel_tol=0.0, max_terms=6)
    for idx in (0, 1, 2, 3):
        with pytest.raises(SeriesDivergence):
            theta_eval(idx, 0.3, tau, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesConfig(max_terms=3)
    with pytest.raises(ValueError):
        DEFAULT_CONFIG._replace(abs_tol=0.0, rel_tol=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            SeriesConfig(abs_tol=bad)
        with pytest.raises(ValueError, match="finite"):
            SeriesConfig(rel_tol=bad)
        with pytest.raises(ValueError, match="finite"):
            DEFAULT_CONFIG._replace(rel_tol=bad)
    assert DEFAULT_CONFIG._replace(max_terms=64) == SeriesConfig(max_terms=64)
    # A budget that is not an integer is refused when built, not in range()
    # at the first evaluation; anything with __index__ is an integer.
    for bad in (100.0, 96.5, "96", None):
        with pytest.raises(ValueError, match="integer"):
            SeriesConfig(max_terms=bad)
        with pytest.raises(ValueError, match="integer"):
            DEFAULT_CONFIG._replace(max_terms=bad)

    class Budget:
        def __index__(self):
            return 64

    assert SeriesConfig(max_terms=Budget()) == SeriesConfig(max_terms=64)
    assert type(SeriesConfig(max_terms=Budget()).max_terms) is int
    with pytest.raises(ValueError):
        theta_eval(5, 0.0, 1j)
    with pytest.raises(ValueError):
        theta_eval(0, 0.0, -1j)


def test_dlog_runs_one_theta_pass(monkeypatch):
    passes = []
    pass4 = theta._theta4

    def counted(*args, **kwargs):
        passes.append(args)
        return pass4(*args, **kwargs)

    monkeypatch.setattr(theta, "_theta4", counted)
    theta_dlog(2, 0.21 + 0.13j, 0.3 + 1.1j)
    assert len(passes) == 1
