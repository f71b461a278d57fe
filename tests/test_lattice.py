"""Lattice construction, constants, and the Eisenstein-sum oracle."""

import cmath
import math
import random

import pytest

from weierzeta import build_lattice, constants, eisenstein_invariants
from weierzeta.errors import ConvergencePolicyError, InvalidPeriodRatio, ZeroPeriod
from weierzeta import lattice
from weierzeta.lattice import (
    cell_coords,
    complement,
    constants_to_json,
    locate,
    nearest_translate,
    reduce_to_cell,
)
from weierzeta.verify import POLE_GUARD
from weierzeta.weier_core import NEAR_POLE_FACTOR, zeta_lattice_sum
from weierzeta.zeta_diff import _zone

from conftest import REFERENCE_TAUS, make_lattice

PI = math.pi

# Complete elliptic integral at squared modulus 1/2 (lemniscatic case),
# K = Gamma(1/4)^2 / (4*sqrt(pi)); fixes e1 for the square lattice through
# K = omega1*sqrt(e1 - e3) with e3 = -e1.
K_LEMNISCATIC = 1.8540746773013719


def test_build_square_lattice():
    lat = build_lattice(0.5, 0.5j)
    assert lat.tau == 1j
    assert abs(lat.q - math.exp(-PI)) < 1e-16
    assert lat.omega2 == -(0.5 + 0.5j)
    assert lat.omega1 + lat.omega2 + lat.omega3 == 0


def test_build_rejects_flat_ratio():
    with pytest.raises(InvalidPeriodRatio):
        build_lattice(1.0, 1.0)


def test_build_rejects_zero_period():
    with pytest.raises(ZeroPeriod):
        build_lattice(0.0, 1j)
    with pytest.raises(ZeroPeriod):
        build_lattice(1.0, 0.0)


def test_build_derives_ratio():
    lat = build_lattice(0.5, 0.25 + 0.5j)
    assert abs(lat.tau - (0.5 + 1j)) < 1e-15


def test_build_rejects_large_nome():
    # Im(tau) tiny -> |q| close to 1.
    with pytest.raises(ConvergencePolicyError):
        build_lattice(0.5, 0.5 * 0.02j)


def test_reduction_and_coords():
    lat = make_lattice("generic")
    u = 0.123 - 0.456j + 6 * lat.omega1 - 4 * lat.omega3
    u_red, n, m = reduce_to_cell(lat, u)
    assert (n, m) == (3, -2)
    a, b = cell_coords(lat, u_red)
    assert abs(a) <= 0.5 + 1e-12 and abs(b) <= 0.5 + 1e-12
    assert abs(u_red + 2 * n * lat.omega1 + 2 * m * lat.omega3 - u) < 1e-12


def test_nearest_translate_exact_hit():
    lat = make_lattice("generic")
    d, t = nearest_translate(lat, lat.omega1 + 2 * lat.omega3, lat.omega1)
    assert d == 0.0
    assert t == lat.omega1 + 2 * lat.omega3


# Every distance a coset distance is compared with, in minimum periods: the
# pole radius, constants_from_deltas' guard, verify's sampling guard and
# guarded_points' default; the test adds the lattice's zones of delta and
# delta2 (`zeta_diff._zone`).
THRESHOLDS = (NEAR_POLE_FACTOR, 1e-6, POLE_GUARD, 0.05)

_W_SWEEP = 225 * cmath.exp(0.8442354444173306j)
THIN_BASES = {
    "tau=4+0.034i": (0.5, 0.5 * (4 + 0.034j)),
    "tau=-3.9+0.05i": (0.5, 0.5 * (-3.9 + 0.05j)),
    "sweep-reproducer": (_W_SWEEP, (2.0117 + 0.0387j) * _W_SWEEP),
}
BASES = {name: (0.5, 0.5 * tau) for name, tau in REFERENCE_TAUS.items()} | THIN_BASES


def _brute_nearest(lat, u, offset, reach=8):
    """Closest point of offset + lattice among (2*reach + 1)**2 candidates."""
    alpha, beta = cell_coords(lat, u - offset)
    n0, m0 = round(alpha), round(beta)
    candidates = [
        offset + 2 * (n0 + dn) * lat.omega1 + 2 * (m0 + dm) * lat.omega3
        for dn in range(-reach, reach + 1)
        for dm in range(-reach, reach + 1)
    ]
    return min(candidates, key=lambda p: abs(u - p))


@pytest.mark.parametrize("name", sorted(BASES))
def test_nearest_translate_matches_brute_force_below_inradius(name):
    # The rounded translate is the nearest one within h/2, half the cell's
    # height min_period * sin(angle between the periods); every threshold
    # below h/2 must therefore get the decision and the translate of a
    # brute-force search, from nearest_translate and from the located point
    # (lattice.nearest) alike.
    lat = build_lattice(*BASES[name])
    half_height = 0.5 * lat.min_period * lat.tau.imag / abs(lat.tau)
    limits = [f * lat.min_period for f in THRESHOLDS] + [_zone(constants(lat), k) for k in (1, 2, 3)]
    limits = [t for t in limits if t < half_height]
    assert len(limits) >= 3
    rng = random.Random(5)
    offsets = (0j, lat.omega1, lat.omega2, lat.omega3)
    pts = [2 * rng.uniform(-2, 2) * lat.omega1 + 2 * rng.uniform(-2, 2) * lat.omega3 for _ in range(40)]
    for t in limits:
        for off in offsets:
            for n, m in ((0, 0), (1, -1)):
                p = off + 2 * n * lat.omega1 + 2 * m * lat.omega3
                pts += [p + r * t * cmath.exp(2j * PI * rng.random()) for r in (0.5, 0.99, 1.01)]
    for u in pts:
        p = locate(lat, u)
        for k, off in enumerate(offsets):
            nearest = _brute_nearest(lat, u, off)
            for dist, translate in (nearest_translate(lat, u, off), lattice.nearest(lat, p, k)):
                for t in limits:
                    assert (dist < t) == (abs(u - nearest) < t), (u, off, t)
                    if dist < t:
                        assert translate == nearest, (u, off, t)


def test_complement_triples():
    assert complement(1) == (2, 3)
    assert complement(2) == (3, 1)
    assert complement(3) == (1, 2)
    with pytest.raises(ValueError):
        complement(4)


def test_square_lattice_constants_match_lemniscatic_values():
    lat = build_lattice(0.5, 0.5j)
    lc = constants(lat)
    e1_expected = (K_LEMNISCATIC / 0.5) ** 2 / 2
    assert abs(lc.e1 - e1_expected) < 1e-12 * e1_expected
    assert abs(lc.eta1 - PI / 2) < 1e-13
    assert abs(lc.g3) <= 1e-12 * abs(lc.g2)
    assert abs(lc.ksq - 0.5) < 1e-14


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_symmetric_function_invariants(name):
    lat = make_lattice(name)
    lc = constants(lat)
    scale = max(abs(lc.e1), abs(lc.e2), abs(lc.e3))
    assert abs(lc.e1 + lc.e2 + lc.e3) <= 1e-13 * scale
    assert abs(lc.eta1 + lc.eta2 + lc.eta3) <= 1e-13 * max(abs(lc.eta1), 1.0)
    assert abs(lc.e1 * lc.e2 + lc.e2 * lc.e3 + lc.e3 * lc.e1 + lc.g2 / 4) <= 1e-12 * scale**2
    assert abs(4 * lc.e1 * lc.e2 * lc.e3 - lc.g3) <= 1e-12 * scale**3
    assert abs(lc.ksq + lc.kpsq - 1) <= 1e-13
    # scale**6 is the natural size here; the discriminant itself can be much
    # smaller through cancellation (e.g. the tall lattice).
    prod = 16 * ((lc.e1 - lc.e2) * (lc.e2 - lc.e3) * (lc.e3 - lc.e1)) ** 2
    assert abs(prod - lc.disc) <= 1e-12 * scale**6


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_legendre_relation_against_lattice_sum(name):
    # eta3 comes from the Legendre relation in production, so check it
    # against an independent zeta lattice sum at omega3.
    lat = make_lattice(name)
    lc = constants(lat)
    eta3_brute = zeta_lattice_sum(lat, lat.omega3, radius=200)
    assert abs(lc.eta3 - eta3_brute) < 1e-6 * max(1.0, abs(eta3_brute))
    assert abs(lc.eta1 * lat.omega3 - lc.eta3 * lat.omega1 - 1j * PI / 2) < 1e-12


def test_scaling_covariance():
    s = 1.3 * cmath.exp(0.4j)
    a = constants(build_lattice(0.5, 0.5 * (0.3 + 1.1j)))
    b = constants(build_lattice(0.5 * s, 0.5 * s * (0.3 + 1.1j)))
    for lam, (ea, eb) in enumerate(zip((a.e1, a.e2, a.e3), (b.e1, b.e2, b.e3)), start=1):
        assert abs(eb - ea / s**2) < 1e-12 * abs(ea)
    for ea, eb in zip((a.eta1, a.eta2, a.eta3), (b.eta1, b.eta2, b.eta3)):
        assert abs(eb - ea / s) < 1e-12 * max(abs(ea), 1.0)
    assert abs(b.g2 - a.g2 / s**4) < 1e-12 * abs(a.g2)
    assert abs(b.g3 - a.g3 / s**6) < 1e-12 * max(abs(a.g3), 1.0)


def test_eisenstein_square_lattice_symmetry():
    lat = build_lattice(0.5, 0.5j)
    g2s, g3s = eisenstein_invariants(lat, 200)
    lc = constants(lat)
    assert abs(g3s) <= 1e-10 * abs(lc.g2) ** 1.5
    assert abs(g2s - lc.g2) <= 1e-8 * abs(lc.g2)


def test_eisenstein_truncation_error_shrinks():
    lat = build_lattice(0.5, 0.5j)
    lc = constants(lat)
    errs = [abs(eisenstein_invariants(lat, r)[0] - lc.g2) for r in (5, 20, 80)]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("name", sorted(REFERENCE_TAUS))
def test_eisenstein_matches_theta_route(name):
    lat = make_lattice(name)
    lc = constants(lat)
    g2s, g3s = eisenstein_invariants(lat, 200)
    scale = max(abs(lc.e1), abs(lc.e2), abs(lc.e3))
    assert abs(g2s - lc.g2) <= 1e-6 * max(abs(lc.g2), scale**2)
    assert abs(g3s - lc.g3) <= 1e-6 * max(abs(lc.g3), scale**3)
    with pytest.raises(ValueError):
        eisenstein_invariants(lat, 0)


def test_constants_json_schema():
    lat = build_lattice(0.5, 0.5j)
    payload = constants_to_json(lat, constants(lat))
    assert set(payload) == {
        "omega1", "omega3", "tau", "q", "e", "eta", "g2", "g3", "disc", "ksq", "kpsq",
    }
    assert payload["omega1"] == [0.5, 0.0]
    assert len(payload["e"]) == 3 and len(payload["eta"]) == 3
    assert all(len(pair) == 2 for pair in payload["e"])
    # disc recomputable from the emitted g2, g3
    g2 = complex(*payload["g2"])
    g3 = complex(*payload["g3"])
    assert abs(complex(*payload["disc"]) - (g2**3 - 27 * g3**2)) < 1e-6 * abs(g2) ** 3
