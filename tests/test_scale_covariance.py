"""Scale covariance: every table entry on a lattice scaled by a power of 2.

Scaling the half-periods and the argument by 2^k is exact in every float
operation that stays within range, so each entry of the function table, on
each route, must give 2^(w*k) times its unit-scale value, bit for bit, w its
weight in the periods.  The oracle needs no reference value, and it reaches
every route at once.  Far enough from unit scale, where the values themselves
near the ends of the float range, it asks only for a finite value, a pole
status or a typed error.  The four lattice-sum oracles are held to the same
rule, or refuse a value that leaves the float range.
"""

import cmath
import math

import pytest

import weierzeta as wz
from weierzeta.errors import WeierzetaError
from weierzeta.functions import FUNCTIONS
from weierzeta.lattice import locate
from weierzeta.theta import DEFAULT_CONFIG

from conftest import REFERENCE_TAUS, make_lattice

# The weight of each entry: its value scales as omega^w.
WEIGHTS = {
    "wp": -2, "wp_prime": -3, "zeta": -1, "sigma": 1, "sigma1": 0, "sigma2": 0, "sigma3": 0,
    **{f"{base}{i}": -1 for base in ("zeta", "delta") for i in (1, 2, 3)},
    **{f"zeta{i}_cos": -1 for i in (1, 2, 3)},
    **{f"delta{i}_prime": -2 for i in (1, 2, 3)},
    **{f"delta{i}{j}": -1 for i, j in ((1, 2), (2, 3), (3, 1))},
    **{f"delta{i}{j}_prime": -2 for i, j in ((1, 2), (2, 3), (3, 1))},
    **{name: 0 for name in ("sn", "cn", "dn", "E", "Z", "Pi")},
}

# Cell coordinates of the points: two in the centred cell, one reduced by a
# translate; and of Pi's second argument.
POINTS = ((0.21, 0.13), (-0.37, 0.29), (1.3, -2.2))
PI_A = (0.1, 0.05)

ROWS = [(name, route) for name, f in FUNCTIONS.items() for route in f.routes or (None,)]


def _row_id(name, route):
    return name if route is None else f"{name}-{route.value}"


def _scaled(z: complex, k: int) -> complex:
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _outcomes(name, route, k):
    """What the entry gives at each point of each reference lattice scaled
    by 2^k: the type of a WeierzetaError, or (value, status, pole)."""
    run = FUNCTIONS[name].run
    out = []
    for lattice in REFERENCE_TAUS:
        unit = make_lattice(lattice)
        lat = wz.build_lattice(_scaled(unit.omega1, k), _scaled(unit.omega3, k))
        a = 2 * PI_A[0] * lat.omega1 + 2 * PI_A[1] * lat.omega3
        for alpha, beta in POINTS:
            u = 2 * alpha * lat.omega1 + 2 * beta * lat.omega3
            try:
                res = run(None, locate(lat, u, DEFAULT_CONFIG), a, route)
            except WeierzetaError as exc:
                out.append(type(exc))
            else:
                out.append((res.value, res.status, res.pole))
    return out


def _compared(outcome, w: int = 0, k: int = 0):
    """An outcome scaled as weight w at 2^k: a Finite value by 2^(w*k), as
    the bits of its parts, and a pole by 2^k."""
    if not isinstance(outcome, tuple):
        return outcome
    value, status, pole = outcome
    if status is not wz.Status.FINITE:
        return None, status, _scaled(pole, k)
    value = _scaled(value, w * k)
    return (value.real.hex(), value.imag.hex()), status, pole


SCALE_CASES = [
    pytest.param(name, route, k, id=f"{_row_id(name, route)}-2^{k}")
    for name, route in ROWS
    for k in (1, -1, 37, -37, 200, -200)
]


@pytest.mark.parametrize("name, route, k", SCALE_CASES)
def test_entry_scales_exactly(name, route, k):
    want = [_compared(o, WEIGHTS[name], k) for o in _outcomes(name, route, 0)]
    assert [_compared(o) for o in _outcomes(name, route, k)] == want


def test_weights_cover_the_table():
    assert set(WEIGHTS) == set(FUNCTIONS)


@pytest.mark.parametrize("k", [400, -400])
@pytest.mark.parametrize("name, route", ROWS, ids=[_row_id(n, r) for n, r in ROWS])
def test_entry_far_from_unit_scale_is_finite_a_pole_or_typed(name, route, k):
    # At 2^+-400 the wp routes serve the sigma form and wp' is a usage error
    # (of order u^-3, it is beyond the float range); every other value is in
    # range.  `_outcomes` keeps a WeierzetaError, and any other propagates.
    for outcome in _outcomes(name, route, k):
        if isinstance(outcome, tuple):
            value, status, _ = outcome
            assert status is not wz.Status.FINITE or cmath.isfinite(value), (name, route, outcome)


# The four lattice-sum oracles at radius 20, each as a tuple of values with
# their weights (g2 -4, g3 -6, wp -2, zeta -1, sigma +1).
ORACLES = {
    "eisenstein_invariants": ((-4, -6), lambda lat, u: wz.eisenstein_invariants(lat, 20)),
    "wp_lattice_sum": ((-2,), lambda lat, u: (wz.wp_lattice_sum(lat, u, 20),)),
    "zeta_lattice_sum": ((-1,), lambda lat, u: (wz.zeta_lattice_sum(lat, u, 20),)),
    "sigma_product": ((1,), lambda lat, u: (wz.sigma_product(lat, u, 20),)),
}


def _scaled_in_range(z: complex, k: int) -> complex | None:
    """z * 2^k, or None where that overflows or underflows to 0 from z != 0."""
    try:
        out = _scaled(z, k)
    except OverflowError:
        return None
    return out if out or not z else None


@pytest.mark.parametrize("k", [37, -37, 200, -200, 400, -400])
@pytest.mark.parametrize("name", list(ORACLES))
@pytest.mark.parametrize("lattice", ["square", "generic"])
def test_oracle_scales_exactly_or_refuses(lattice, name, k):
    # The oracles sum in units of 2^e, 1 <= |2*omega1|/2^e < 2, so at
    # omega1 = 2^k/2 they sum what they sum at unit scale and scale it back;
    # a value that leaves the float range is refused.
    weights, oracle = ORACLES[name]
    unit = make_lattice(lattice)
    lat = wz.build_lattice(_scaled(unit.omega1, k), _scaled(unit.omega3, k))
    u = 0.42 * unit.omega1 + 0.26 * unit.omega3
    want = [_scaled_in_range(v, w * k) for v, w in zip(oracle(unit, u), weights)]
    if None in want:
        with pytest.raises(wz.ValueOverflow):
            oracle(lat, _scaled(u, k))
    else:
        got = oracle(lat, _scaled(u, k))
        assert [(v.real.hex(), v.imag.hex()) for v in got] == [(v.real.hex(), v.imag.hex()) for v in want]
