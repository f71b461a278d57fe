"""Jacobian elliptic functions and integrals tied to the zeta differences.

The moduli (from the half-period differences) and the complete integrals
(from the arithmetic-geometric mean) are built with the lattice's constants,
in `lattice.constants`; this module hands them out behind the degeneracy
test and forms sn/cn/dn from sigma quotients, so that every transformation
formula connecting them to the zeta differences can be checked numerically.
Arguments named x live on the Jacobi side; u = x/scale lives on the lattice
side, where scale**2 = e1 - e3.
"""

from __future__ import annotations

import cmath
import math

from .errors import BranchAmbiguity, DegenerateLattice, PoleProximityError
# AGM_TOL and agm_complete_integrals are re-exported from here.
from .lattice import (
    AGM_TOL,
    JacobiParams,
    Lattice,
    LatticeConstants,
    agm_complete_integrals,
    constants,
)
from .theta import DEFAULT_CONFIG, SeriesConfig
from .weier_core import _sigmas, _theta_zeta, _translate_sign, pole_status, sigma_aux
from .aux_zeta import zeta_aux

PI = math.pi


def jacobi_params(lat: Lattice, cfg: SeriesConfig = DEFAULT_CONFIG) -> JacobiParams:
    """Moduli and complete integrals for the lattice, as built with its
    constants.

    Raises DegenerateLattice, on every call, when the discriminant is
    negligible against the invariants (two half-period values collide and
    the moduli lose meaning).
    """
    return _params(constants(lat, cfg))


def _params(lc: LatticeConstants) -> JacobiParams:
    if abs(lc.disc) <= lc.disc_floor:
        raise DegenerateLattice(f"discriminant {lc.disc!r} is numerically zero")
    return lc.jacobi


def sn_cn_dn(p: JacobiParams, x: complex) -> tuple[complex, complex, complex]:
    """(sn, cn, dn) at Jacobi argument x, from sigma quotients.

    sn = scale*sigma/sigma_3, cn = sigma_1/sigma_3, dn = sigma_2/sigma_3 at
    u = x/scale; the shared poles sit on the omega_3 coset, and within the
    pole radius of it this raises PoleProximityError.  The sigmas divide by
    the record's `sigma_factor` and `nullwerte` that p carries, so no
    constants lookup is made.
    """
    lat, cfg = p.lattice, p.cfg
    pt, bad = pole_status(lat, x / p.scale, (3,))
    if bad is not None:
        raise PoleProximityError(
            f"Jacobi argument {x!r} sits at a shared sn/cn/dn pole (u near {bad.pole!r})"
        )
    # The Gaussian and quasi-period factors common to all four sigmas cancel;
    # only the auxiliary signs of the translate remain.
    s0, s1, s2, s3 = _sigmas(lat, p, pt, cfg)
    s3 *= _translate_sign(pt, 3)
    return p.scale * s0 / s3, s1 * _translate_sign(pt, 1) / s3, s2 * _translate_sign(pt, 2) / s3


def jacobi_E_Z(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> tuple[complex, complex]:
    """Epsilon E(x) and zeta Z(x) = E(x) - (E/K)*x at x = scale*u.

    E(x) = (zeta_3(u) + e1*u)/scale, from the third auxiliary zeta on its
    theta route, and Z takes the record's complete integrals `big_k` and
    `big_e`, the principal K(k) and E(k) of DLMF 22.16.  The paper's form
    Z = (zeta_3(u) - eta1*u/omega1)/scale is the same function only where
    scale*omega1 = K, as on the reference lattices; on other bases of a
    lattice the two differ by a multiple of x.
    """
    lc = constants(lat, cfg)
    p = _params(lc)
    pt, bad = pole_status(lat, u, (3,))
    if bad is not None:
        raise PoleProximityError(f"u = {u!r} is at/near a pole of the third auxiliary zeta")
    z3 = _theta_zeta(lat, lc, pt, cfg, 3)[0]
    big_e = (z3 + lc.e1 * u) / p.scale
    return big_e, big_e - (p.big_e / p.big_k) * (p.scale * u)


def jacobi_E_Z_Pi(
    lat: Lattice, u: complex, a: complex, cfg: SeriesConfig = DEFAULT_CONFIG
) -> tuple[complex, complex, complex]:
    """Epsilon E(scale*u), zeta Z(scale*u), and Pi(scale*u, scale*a).

    E and Z are `jacobi_E_Z`; Pi needs the log of a sigma quotient, tracked
    continuously along the straight segment from 0 so the branch agrees with
    the defining integral from 0.  Raises PoleProximityError when u or a is
    at/near a pole of the third auxiliary zeta.
    """
    big_e, big_z = jacobi_E_Z(lat, u, cfg)
    z3a = zeta_aux(lat, 3, a, cfg=cfg)
    if not z3a.is_finite:
        raise PoleProximityError(f"a = {a!r} is at/near a pole of the third auxiliary zeta")
    if u == 0:
        return big_e, big_z, 0j
    return big_e, big_z, 0.5 * _tracked_log_ratio(lat, u, a, cfg) + z3a.value * u


def _tracked_log_ratio(lat: Lattice, u: complex, a: complex, cfg: SeriesConfig) -> complex:
    """log of sigma_3(u - a)/sigma_3(u + a), continuous along t*u from t=0.

    At t = 0 the ratio is exactly 1 (sigma_3 is even).  The principal log of
    each step ratio is accumulated; a step whose phase jump cannot be brought
    under pi/2 by bisection signals a crossing of the zero set, where the
    branch genuinely is ambiguous.
    """

    def ratio(t: float) -> complex:
        num = sigma_aux(lat, 3, t * u - a, cfg)
        den = sigma_aux(lat, 3, t * u + a, cfg)
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
