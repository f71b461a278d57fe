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
    agm_complete_integrals,
    constants,
)
from .theta import DEFAULT_CONFIG, SeriesConfig
from .weier_core import _AUX_SIGN, _sigmas, pole_status, sigma_aux
from .aux_zeta import zeta_aux
from .zeta_diff import DeltaRoute, delta, delta2

PI = math.pi


def jacobi_params(lat: Lattice, cfg: SeriesConfig = DEFAULT_CONFIG) -> JacobiParams:
    """Moduli and complete integrals for the lattice, as built with its
    constants.

    Raises DegenerateLattice, on every call, when the discriminant is
    negligible against the invariants (two half-period values collide and
    the moduli lose meaning).
    """
    lc = constants(lat, cfg)
    if abs(lc.disc) <= 1e-10 * max(abs(lc.g2) ** 3, 27 * abs(lc.g3) ** 2, 1e-300):
        raise DegenerateLattice(f"discriminant {lc.disc!r} is numerically zero")
    return lc.jacobi


def sn_cn_dn(p: JacobiParams, x: complex) -> tuple[complex, complex, complex]:
    """(sn, cn, dn) at Jacobi argument x, from sigma quotients.

    sn = scale*sigma/sigma_3, cn = sigma_1/sigma_3, dn = sigma_2/sigma_3 at
    u = x/scale; the shared poles sit on the omega_3 coset, and within the
    pole radius of it this raises PoleProximityError.
    """
    lat, cfg = p.lattice, p.cfg
    pt, bad = pole_status(lat, x / p.scale, (3,))
    if bad is not None:
        raise PoleProximityError(
            f"Jacobi argument {x!r} sits at a shared sn/cn/dn pole (u near {bad.pole!r})"
        )
    # The quasi-periodicity factor common to all four sigmas cancels; only
    # the auxiliary signs of the translate remain.
    s0, s1, s2, s3 = _sigmas(lat, constants(lat, cfg), pt, cfg)
    s3 *= _AUX_SIGN[3](pt.n, pt.m)
    return (
        p.scale * s0 / s3,
        s1 * _AUX_SIGN[1](pt.n, pt.m) / s3,
        s2 * _AUX_SIGN[2](pt.n, pt.m) / s3,
    )


def check_thm211(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> list[float]:
    """Residuals of the six transformation rows linking delta products and
    quotients to ns, ds, cs, sn(K - x), dn, nc.

    The left sides combine wp-route delta values under principal square
    roots, so the row residuals are meaningful where the principal branch
    matches the sigma-quotient convention: rectangular lattices with real
    arguments.  The suite's thm211_squared_* identities check the
    square-root-free rows on arbitrary lattices.
    """
    p = jacobi_params(lat, cfg)
    x = p.scale * u
    s, c, d = sn_cn_dn(p, x)
    dv = {lam: delta(lat, lam, u, DeltaRoute.WP_QUOTIENT, cfg).value for lam in (1, 2, 3)}
    sK, _, _ = sn_cn_dn(p, p.big_k - x)
    rows = [
        (cmath.sqrt(dv[1] * dv[2]), p.scale / s),
        (cmath.sqrt(dv[1] * dv[3]), p.scale * d / s),
        (cmath.sqrt(dv[2] * dv[3]), p.scale * c / s),
        (cmath.sqrt(dv[2] / dv[1]), sK),
        (cmath.sqrt(dv[3] / dv[2]), d),
        (cmath.sqrt(dv[1] / dv[3]), 1.0 / c),
    ]
    return [abs(lhs - rhs) for lhs, rhs in rows]


def check_cor212(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> list[float]:
    """Residuals of the three delta-to-Jacobi rows.

    Each entry is the max of |delta_lam - (e_mu - e_nu)/delta2_{mu,nu}| and
    |delta_lam - jacobi member|.  The Jacobi members carry a minus sign
    relative to their naive quotient form: delta_lam behaves as -1/u at the
    origin while dn/(sn*cn), cn/(dn*sn), cn*dn/sn all behave as +1/x, so the
    sigma-quotient branch convention forces the sign.
    """
    p = jacobi_params(lat, cfg)
    lc = constants(lat, cfg)
    x = p.scale * u
    s, c, d = sn_cn_dn(p, x)
    dv = {lam: delta(lat, lam, u, DeltaRoute.ZETA_DIFF, cfg).value for lam in (1, 2, 3)}
    d2 = {
        pair: delta2(lat, pair[0], pair[1], u, DeltaRoute.WP_QUOTIENT, cfg).value
        for pair in ((2, 3), (1, 3), (1, 2))
    }
    rows = [
        (dv[1], (lc.e2 - lc.e3) / d2[(2, 3)], -p.scale * d / (s * c)),
        (dv[2], (lc.e1 - lc.e3) / d2[(1, 3)], -p.scale * c / (d * s)),
        (dv[3], (lc.e1 - lc.e2) / d2[(1, 2)], -p.scale * c * d / s),
    ]
    return [max(abs(a - b), abs(a - c_)) for a, b, c_ in rows]


def jacobi_E_Z(lat: Lattice, u: complex, cfg: SeriesConfig = DEFAULT_CONFIG) -> tuple[complex, complex]:
    """Epsilon E(scale*u) and zeta Z(scale*u), both from the third auxiliary zeta."""
    lc = constants(lat, cfg)
    p = jacobi_params(lat, cfg)
    z3 = zeta_aux(lat, 3, u, cfg=cfg)
    if not z3.is_finite:
        raise PoleProximityError(f"u = {u!r} is at/near a pole of the third auxiliary zeta")
    big_e = (z3.value + lc.e1 * u) / p.scale
    big_z = (z3.value - (lc.eta1 / lat.omega1) * u) / p.scale
    return big_e, big_z


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
