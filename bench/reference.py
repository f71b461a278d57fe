"""30-digit reference values from mpmath, and the checks against them.

The reference is built only from mpmath's Jacobi theta functions
(`jtheta`, with derivatives), its Jacobian elliptic functions (`ellipfun`)
and complete integrals, and quadrature, so it shares no code and no
truncation policy with the library under test.
"""

from __future__ import annotations

import cmath

import mpmath as mp

mp.mp.dps = 30

# The identity suite's pinned relative tolerance.
REL_TOL = 1e-9


def rel_error(got: complex, ref, floor) -> float:
    """|got - ref| relative to max(|ref|, floor).

    The floor is the quantity's natural unit on its lattice, so values that
    pass through zero (delta12 at its zeros, sn at the lattice) are judged
    on that unit instead of on a vanishing magnitude.
    """
    ref = mp.mpc(ref)
    return float(abs(mp.mpc(got) - ref) / max(abs(ref), mp.mpf(floor)))


class LatticeRef:
    """Reference Weierstrass and Jacobi quantities for half-periods (w1, w3)."""

    def __init__(self, w1: complex, w3: complex):
        self.w1 = mp.mpc(w1)
        self.w3 = mp.mpc(w3)
        self.w2 = -self.w1 - self.w3
        self.q = mp.exp(1j * mp.pi * self.w3 / self.w1)
        self.c = mp.pi / (2 * self.w1)
        t1p = mp.jtheta(1, 0, self.q, 1)
        t1ppp = mp.jtheta(1, 0, self.q, 3)
        self.eta1 = -self.c ** 2 * self.w1 * t1ppp / (3 * t1p)
        # Legendre relation eta1*omega3 - eta3*omega1 = i*pi/2.
        self.eta3 = (self.eta1 * self.w3 - 1j * mp.pi / 2) / self.w1
        self.eta2 = -self.eta1 - self.eta3
        self.e1, self.e2, self.e3 = (self.wp(w) for w in (self.w1, self.w2, self.w3))
        self.g2 = -4 * (self.e1 * self.e2 + self.e2 * self.e3 + self.e3 * self.e1)
        self.g3 = 4 * self.e1 * self.e2 * self.e3
        self.disc = 16 * ((self.e1 - self.e2) * (self.e2 - self.e3) * (self.e1 - self.e3)) ** 2
        # Natural unit of a weight-1 quantity (zeta-like) on this lattice.
        self.unit = mp.sqrt(abs(self.e1 - self.e3))
        self._jacobi = None

    def half_period(self, lam: int):
        return (self.w1, self.w2, self.w3)[lam - 1]

    def eta(self, lam: int):
        return (self.eta1, self.eta2, self.eta3)[lam - 1]

    def zeta(self, u):
        z = self.c * u
        return self.eta1 * u / self.w1 + self.c * mp.jtheta(1, z, self.q, 1) / mp.jtheta(1, z, self.q)

    def wp(self, u):
        z = self.c * u
        t = mp.jtheta(1, z, self.q)
        tp = mp.jtheta(1, z, self.q, 1)
        tpp = mp.jtheta(1, z, self.q, 2)
        return -self.eta1 / self.w1 - self.c ** 2 * (tpp / t - (tp / t) ** 2)

    def zeta_aux(self, lam: int, u):
        return self.zeta(u + self.half_period(lam)) - self.eta(lam)

    def delta2(self, lam: int, mu: int, u):
        return self.zeta_aux(lam, u) - self.zeta_aux(mu, u)

    # ---- Jacobi side: parameter m = k^2, argument x = scale * u -------------
    def jacobi(self):
        if self._jacobi is None:
            m = (self.e2 - self.e3) / (self.e1 - self.e3)
            scale = mp.sqrt(self.e1 - self.e3)
            # The library takes the principal root in double precision; use
            # the same sign of the root so that x = scale * u agrees.
            float_root = cmath.sqrt(complex(self.e1 - self.e3))
            if abs(complex(scale) - float_root) > abs(complex(scale) + float_root):
                scale = -scale
            big_k, big_e = mp.ellipk(m), mp.ellipe(m)
            self._jacobi = (m, scale, big_k, big_e, mp.qfrom(m=m))
        return self._jacobi

    def sn_cn_dn(self, u):
        m, scale, _, _, _ = self.jacobi()
        x = scale * u
        return tuple(mp.ellipfun(kind, x, m=m) for kind in ("sn", "cn", "dn"))

    def jacobi_E_Z(self, u):
        """Jacobi epsilon E(x) and zeta Z(x) = (pi/2K) theta4'/theta4 in the nome of m."""
        m, scale, big_k, big_e, qm = self.jacobi()
        x = scale * u
        zz = mp.pi * x / (2 * big_k)
        big_z = mp.pi / (2 * big_k) * mp.jtheta(4, zz, qm, 1) / mp.jtheta(4, zz, qm)
        return big_z + big_e / big_k * x, big_z

    def jacobi_Pi(self, u, a):
        """Jacobi's Pi(x, alpha) by quadrature along the segment from 0 to x."""
        m, scale, _, _, _ = self.jacobi()
        x, al = scale * u, scale * a
        sa, ca, da = (mp.ellipfun(kind, al, m=m) for kind in ("sn", "cn", "dn"))
        num = m * sa * ca * da

        def integrand(t):
            s2 = mp.ellipfun("sn", t * x, m=m) ** 2
            return x * num * s2 / (1 - m * sa * sa * s2)

        with mp.workdps(20):  # ample for a 1e-9 check, and a few times faster
            return mp.quad(integrand, [0, 0.5, 1])


# Natural-unit weight of each checked quantity: the floor is unit**weight.
# The discriminant never vanishes on a lattice, so it is judged purely
# relative (weight None).
WEIGHTS = {
    "e": 2, "eta": 1, "g2": 4, "g3": 6, "disc": None,
    "wp": 2, "zeta_aux": 1, "delta2": 1,
    "sn": 0, "cn": 0, "dn": 0, "E": 0, "Z": 0, "Pi": 0,
}


def floor_for(ref: LatticeRef, quantity: str):
    weight = WEIGHTS[quantity]
    if weight is None:
        return mp.mpf("1e-300")
    return ref.unit ** weight


def check_value(ref: LatticeRef, quantity: str, got: complex, expected) -> float | None:
    """Relative error of got, or None when it lies within REL_TOL."""
    err = rel_error(got, expected, floor_for(ref, quantity))
    return None if err <= REL_TOL else err
