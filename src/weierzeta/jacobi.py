"""Jacobian elliptic functions and integrals tied to the zeta differences.

The moduli (from the half-period differences), the complete integrals (from
the arithmetic-geometric mean) and the scale are fields of the lattice's one
record, `lattice.constants`; `jacobi_params` hands the record out behind the
degeneracy test.  sn/cn/dn (sigma quotients), E/Z and Pi are kernels (lc, p,
*args) on that record behind one Jacobi guard (`_jacobi`): the degeneracy
test, then the pole guard (`weier_core._guarded`) on the omega_3 coset,
where all of them have their poles, at the point the caller located.
Arguments named x live on the Jacobi side; u = x/scale lives on the lattice
side, where scale**2 = e1 - e3.
"""

from __future__ import annotations

import cmath
import math

from .errors import BranchAmbiguity, DegenerateLattice
# AGM_TOL and agm_complete_integrals are re-exported from here.
from .lattice import (
    AGM_TOL,
    Lattice,
    LatticeConstants,
    Located,
    _translate_sign,
    agm_complete_integrals,
    constants,
    locate,
)
from .theta import DEFAULT_CONFIG, SeriesConfig
from .weier_core import EvalResult, _guarded, _sigma, _sigmas, _theta_zeta, _val, pole_status

PI = math.pi


def jacobi_params(lat: Lattice, cfg: SeriesConfig = DEFAULT_CONFIG) -> LatticeConstants:
    """The lattice's record, `constants(lat, cfg)`, whose moduli `k` and
    `kprime`, complete integrals `big_k` and `big_e`, and `scale` the Jacobi
    functions read.

    Raises DegenerateLattice, on every call, when the discriminant is
    negligible against the invariants (two half-period values collide and
    the moduli lose meaning).
    """
    return _record(lat, None, cfg)


def _record(lat: Lattice, lc, cfg: SeriesConfig) -> LatticeConstants:
    """The lattice's record lc, looked up for None, unless the lattice is
    degenerate: every Jacobi evaluation refuses one before its pole guard."""
    lc = lc or constants(lat, cfg)
    if lc.degenerate:
        raise DegenerateLattice(f"discriminant {lc.disc!r} is numerically zero")
    return lc


def _jacobi(kernel, lc, p: Located, *args) -> EvalResult:
    """The Jacobi guard: kernel(lc, p, *args) on the record lc (None: looked
    up on p's lattice and config), refused for a degenerate lattice, then
    behind the pole guard on the omega_3 coset."""
    return _guarded(kernel, p, (3,), _record(p.lat, lc, p.cfg), *args)


def sn_cn_dn(p: LatticeConstants, x: complex) -> tuple[complex, complex, complex]:
    """(sn, cn, dn) at Jacobi argument x, `_sn_cn_dn` at u = x/scale on the
    record p that `jacobi_params` returns, with no lookup.  Raises
    DegenerateLattice for a degenerate lattice, then PoleProximityError near
    the shared poles of the three, the omega_3 coset.
    """
    return _val(_jacobi(_sn_cn_dn, p, locate(p.lattice, x / p.scale, p.cfg)))


def _sn_cn_dn(lc: LatticeConstants, p: Located) -> tuple:
    """(sn, cn, dn) at x = scale*u for the located point p: sn =
    scale*sigma/sigma_3, cn = sigma_1/sigma_3, dn = sigma_2/sigma_3, the
    sigmas normalised by the record lc."""
    # The Gaussian and quasi-period factors common to all four sigmas cancel;
    # only the auxiliary signs of the translate remain.
    s0, s1, s2, s3 = _sigmas(lc, p)
    s3 *= _translate_sign(p, 3)
    return lc.scale * s0 / s3, s1 * _translate_sign(p, 1) / s3, s2 * _translate_sign(p, 2) / s3


def jacobi_E_Z(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> tuple[complex, complex]:
    """Epsilon E(x) and zeta Z(x) = E(x) - (E/K)*x at x = scale*u.

    E(x) = (zeta_3(u) + e1*u)/scale, from the third auxiliary zeta on its
    theta route, and Z takes the record's complete integrals `big_k` and
    `big_e`, the principal K(k) and E(k) of DLMF 22.16.  The paper's form
    Z = (zeta_3(u) - eta1*u/omega1)/scale is the same function only where
    scale*omega1 = K, as on the reference lattices; on other bases of a
    lattice the two differ by a multiple of x.  Raises DegenerateLattice as
    `jacobi_params` does, then PoleProximityError when u is at/near a pole
    of the third auxiliary zeta.
    """
    lc = constants(lat, cfg)
    return _val(_jacobi(_E_Z, lc, locate(lat, u, cfg)))


def _E_Z(lc: LatticeConstants, p: Located) -> tuple[complex, complex]:
    """(E, Z) at the located point p."""
    z3 = _theta_zeta(lc, p, 3)[0]
    big_e = (z3 + lc.e1 * p.u) / lc.scale
    return big_e, big_e - (lc.big_e / lc.big_k) * (lc.scale * p.u)


def jacobi_E_Z_Pi(
    lat: Lattice, u: complex, a: complex, cfg: SeriesConfig = DEFAULT_CONFIG
) -> tuple[complex, complex, complex]:
    """Epsilon E(scale*u), zeta Z(scale*u), and Pi(scale*u, scale*a).

    E and Z are `jacobi_E_Z`; Pi needs the log of a sigma quotient, tracked
    continuously along the straight segment from 0 so the branch agrees with
    the defining integral from 0.  Raises DegenerateLattice as
    `jacobi_params` does, PoleProximityError when a, tested first, or u is
    at/near a pole of the third auxiliary zeta, BranchAmbiguity where the
    tracking fails, and ValueOverflow where a sigma_3 factor overflows.
    """
    return _val(_guarded_Pi(constants(lat, cfg), locate(lat, u, cfg), a))


def _guarded_Pi(lc, p: Located, a: complex) -> EvalResult:
    """`_E_Z_Pi` at the located point p and at a, located here on p's
    lattice and config, with the record lc (None: looked up): a degenerate
    lattice is refused, then a's pole status reported, then p's."""
    lc = _record(p.lat, lc, p.cfg)
    pa = locate(p.lat, a, p.cfg)
    return pole_status(pa, (3,)) or _guarded(_E_Z_Pi, p, (3,), lc, pa)


def _E_Z_Pi(lc: LatticeConstants, p: Located, pa: Located) -> tuple:
    """(E, Z, Pi) at the located point p and the located second argument pa."""
    big_e, big_z = _E_Z(lc, p)
    z3a = _theta_zeta(lc, pa, 3)[0]
    if p.u == 0:
        return big_e, big_z, 0j
    return big_e, big_z, 0.5 * _tracked_log_ratio(lc, p, pa) + z3a * p.u


def _tracked_log_ratio(lc: LatticeConstants, p: Located, pa: Located) -> complex:
    """log of sigma_3(u - a)/sigma_3(u + a), u = p.u and a = pa.u, continuous
    along t*u from t=0, each sample located on p's lattice and config.

    At t = 0 the ratio is exactly 1 (sigma_3 is even).  The principal log of
    each step ratio is accumulated; a step whose phase jump cannot be brought
    under pi/2 by bisection signals a crossing of the zero set, where the
    branch genuinely is ambiguous.
    """
    lat, cfg, u, a = p.lat, p.cfg, p.u, pa.u

    def ratio(t: float) -> complex:
        num = _sigma(lc, locate(lat, t * u - a, cfg), 3)
        den = _sigma(lc, locate(lat, t * u + a, cfg), 3)
        if den == 0 or num == 0:
            raise BranchAmbiguity(
                f"sigma_3 vanishes on the tracking segment at t = {t}; Pi is singular there"
            )
        return num / den

    f_prev = ratio(0.0)  # equals 1
    t_prev = 0.0
    total = cmath.log(f_prev)
    stack = [1.0]
    depth = 0
    max_mag_jump = math.log(10.0)
    while stack:
        t_next = stack[-1]
        f_next = ratio(t_next)
        step = f_next / f_prev
        # Refine on a large phase step or a large magnitude swing; the
        # latter is what betrays a zero crossing sliding between samples.
        if abs(cmath.phase(step)) > PI / 2 or abs(math.log(abs(step))) > max_mag_jump:
            mid = (t_prev + t_next) / 2
            if mid <= t_prev or depth > 200:
                raise BranchAmbiguity(
                    f"cannot resolve the log branch near t = {t_next} on the Pi segment"
                )
            stack.append(mid)
            depth += 1
            continue
        total += cmath.log(step)
        f_prev, t_prev = f_next, t_next
        stack.pop()
    return total
