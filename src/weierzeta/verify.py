"""Function table and identity-certification harness.

FUNCTIONS binds each public function name to its callable, its routes and
its need for a second argument; `weierzeta eval`, `weierzeta table` and the
suite runner all read it.  Every displayed identity in scope is registered
as an IdentitySpec whose sides are table functions, written `name` or
`name:route`, or compound evaluators from EVALUATORS.  run_suite samples
guarded points in the fundamental cell, evaluates both sides, and reports
relative residual statistics per identity.  Deterministic given (lattice,
suite, n, seed).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

from .aux_zeta import ZetaRoute, zeta_aux
from .errors import PoleProximityError, SuiteConfigError, WeierzetaError
from .jacobi import jacobi_E_Z, jacobi_E_Z_Pi, jacobi_params, sn_cn_dn
from .lattice import Lattice, complement, constants, locate, nearest
from .theta import DEFAULT_CONFIG, HALF_PERIOD_THETA, SeriesConfig
from .weier_core import EvalResult, Status, _thetas, sigma, sigma_aux, wp, wp_prime, zeta_w
from .zeta_diff import DeltaRoute, delta, delta2, delta_prime, delta2_prime

PI = math.pi

# Sampling keeps this fraction of the minimum period away from every
# exclusion locus, so condition numbers stay bounded at tol 1e-9.
POLE_GUARD = 0.02

# Relative residual floor: |lhs - rhs| / max(|lhs|, |rhs|, RESIDUAL_FLOOR).
RESIDUAL_FLOOR = 1e-30

# Step for the finite-difference identities, as a fraction of the minimum
# period.  A fourth-order five-point stencil is used: a plain central
# difference needs a tiny step near the pole guard, where the cancellation
# noise of the log arguments grows like 1/h and eats the 1e-6 tolerance.
FD_STEP = 1e-4
FD_TOL = 1e-6

PARTIALFRAC_TOL = 1e-5

# Exceptions a side can raise at one sample point that fail its identity
# alone: evaluation errors of the library and floating-point failures.
# Anything else is a fault in the program or the suite and still ends the run.
SAMPLE_ERRORS = (WeierzetaError, ArithmeticError, ValueError)


# ---------------------------------------------------------------------------
# Function table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Function:
    """One public function as `eval`, `table` and the suite call it.

    run(lat, cfg, u, a, route) returns an EvalResult.  It looks the library
    function up by its module-global name when it runs, so rebinding that
    name (as bench/tracer.py does) reaches every caller of the table.
    """

    run: Callable
    routes: tuple = ()  # accepted routes, the default first
    needs_a: bool = False

    def route(self, name: str | None):
        """The route called name, or the default for None; ValueError if
        this function does not accept it."""
        if name is None:
            return self.routes[0] if self.routes else None
        for r in self.routes:
            if r.value == name:
                return r
        raise ValueError(f"route {name!r} not valid")


def _finite(value: complex) -> EvalResult:
    return EvalResult(value, Status.FINITE)


def _jacobi(lat: Lattice, cfg: SeriesConfig, u: complex) -> tuple:
    """(sn, cn, dn) at the Jacobi argument scale*u."""
    p = jacobi_params(lat, cfg)
    return sn_cn_dn(p, p.scale * u)


def _functions() -> dict:
    zeta_routes = (ZetaRoute.THETA, ZetaRoute.SHIFT, ZetaRoute.QSERIES, ZetaRoute.PARTIAL_FRACTION)
    delta_routes = (DeltaRoute.SIGMA_QUOTIENT, DeltaRoute.ZETA_DIFF, DeltaRoute.WP_QUOTIENT, DeltaRoute.THETA_QUOTIENT)
    delta2_routes = (DeltaRoute.WP_QUOTIENT, DeltaRoute.ZETA_DIFF, DeltaRoute.SIGMA_QUOTIENT, DeltaRoute.THETA_QUOTIENT)
    table = {
        "wp": Function(lambda lat, cfg, u, a, r: wp(lat, u, cfg)),
        "wp_prime": Function(lambda lat, cfg, u, a, r: wp_prime(lat, u, cfg)),
        "zeta": Function(lambda lat, cfg, u, a, r: zeta_w(lat, u, cfg)),
        "sigma": Function(lambda lat, cfg, u, a, r: _finite(sigma(lat, u, cfg))),
    }
    for lam in (1, 2, 3):
        table[f"sigma{lam}"] = Function(lambda lat, cfg, u, a, r, i=lam: _finite(sigma_aux(lat, i, u, cfg)))
        table[f"zeta{lam}"] = Function(lambda lat, cfg, u, a, r, i=lam: zeta_aux(lat, i, u, r, cfg), zeta_routes)
        table[f"delta{lam}"] = Function(lambda lat, cfg, u, a, r, i=lam: delta(lat, i, u, r, cfg), delta_routes)
    for lam, mu in ((1, 2), (2, 3), (3, 1)):
        table[f"delta{lam}{mu}"] = Function(
            lambda lat, cfg, u, a, r, i=lam, j=mu: delta2(lat, i, j, u, r, cfg), delta2_routes
        )
    for k, name in enumerate(("sn", "cn", "dn")):
        table[name] = Function(lambda lat, cfg, u, a, r, k=k: _finite(_jacobi(lat, cfg, u)[k]))
    for k, name in enumerate(("E", "Z")):
        table[name] = Function(lambda lat, cfg, u, a, r, k=k: _finite(jacobi_E_Z(lat, u, cfg)[k]))
    table["Pi"] = Function(
        lambda lat, cfg, u, a, r: _finite(jacobi_E_Z_Pi(lat, u, 0j if a is None else a, cfg)[2]),
        needs_a=True,
    )
    return table


FUNCTIONS = _functions()


@dataclass(frozen=True)
class IdentitySpec:
    """One checkable identity: side names, tolerance, loci to avoid.

    A side is a table function, `name` or `name:route`, or an EVALUATORS
    entry."""

    name: str
    lhs: str
    rhs: str
    arity: int = 1
    tol: float = 1e-9
    exclusions: tuple[str, ...] = ()


@dataclass(frozen=True)
class IdentityReport:
    """Residual statistics of one identity over its samples.

    When a side raised one of SAMPLE_ERRORS, the identity stopped there:
    `error` names the exception type, the point that raised is the last
    entry of `failures` with residual None, and the statistics cover the
    `samples` points evaluated before it (None when there were none).  A
    residual that is not <= the tolerance, NaN included, is a failure;
    `report_to_json` writes a non-finite residual or statistic as null.
    """

    name: str
    samples: int
    max_rel: float | None
    mean_rel: float | None
    failures: tuple
    passed: bool
    error: str | None = None


class _Ctx:
    """Per-(lattice, config) evaluation context shared by all evaluators."""

    def __init__(self, lat: Lattice, cfg: SeriesConfig):
        self.lat = lat
        self.cfg = cfg
        self.lc = constants(lat, cfg)

    @property
    def jp(self):
        return jacobi_params(self.lat, self.cfg)

    def __call__(self, name: str, u: complex, route: str | None = None) -> complex:
        """Value of the table function name at u on route; raises at a pole."""
        f = FUNCTIONS[name]
        return _val(f.run(self.lat, self.cfg, u, None, f.route(route)))

    def jac(self, u: complex) -> tuple:
        """(sn, cn, dn) at the Jacobi argument scale*u, the table's sn, cn
        and dn in one call; raises at their shared poles."""
        return _jacobi(self.lat, self.cfg, u)

    def dp(self, lam, u):
        return _val(delta_prime(self.lat, lam, u, self.cfg))

    def d2p(self, lam, mu, u):
        return _val(delta2_prime(self.lat, lam, mu, u, self.cfg))

    def w(self, lam):
        return self.lat.half_period(lam)

    def e(self, lam):
        return self.lc.e(lam)

    def eta(self, lam):
        return self.lc.eta(lam)

    def fd_step(self) -> float:
        return FD_STEP * self.lat.min_period


def _val(res):
    if not res.is_finite:
        raise PoleProximityError(f"evaluator hit a {res.status.value} point at {res.pole!r}")
    return res.value


def _fd(f, u, h):
    """Fourth-order five-point derivative of f at u."""
    return (8 * (f(u + h) - f(u - h)) - (f(u + 2 * h) - f(u - 2 * h))) / (12 * h)


def _fd_log(wfun, u, h):
    """Fourth-order derivative of log(w(u)) immune to branch cuts: samples a
    step apart are close, so the principal log of their ratio is the
    increment."""
    l1 = cmath.log(wfun(u + h) / wfun(u - h))
    l2 = cmath.log(wfun(u + 2 * h) / wfun(u - 2 * h))
    return (8 * l1 - l2) / (12 * h)


# ---------------------------------------------------------------------------
# Compound evaluators: sides that are more than one table function on one
# route.  Each takes the context and the sample point(s).
# ---------------------------------------------------------------------------

EVALUATORS: dict = {}


def _ev(name):
    def bind(fn):
        if name in EVALUATORS:
            raise SuiteConfigError(f"duplicate evaluator name {name!r}")
        EVALUATORS[name] = fn
        return fn

    return bind


def _register_all() -> None:
    # ---- classical core -----------------------------------------------------
    _ev("wp_neg")(lambda c, u: c("wp", -u))
    _ev("wp_prime_sq")(lambda c, u: c("wp_prime", u) ** 2)
    _ev("wp_cubic")(lambda c, u: 4 * c("wp", u) ** 3 - c.lc.g2 * c("wp", u) - c.lc.g3)
    _ev("wp_factored")(
        lambda c, u: 4 * (c("wp", u) - c.e(1)) * (c("wp", u) - c.e(2)) * (c("wp", u) - c.e(3))
    )
    _ev("zeta_odd")(lambda c, u: -c("zeta", -u))

    for lam in (1, 2, 3):
        _ev(f"sigma{lam}_shiftform")(
            lambda c, u, i=lam: cmath.exp(-c.eta(i) * u) * c("sigma", c.w(i) + u) / c("sigma", c.w(i))
        )
    for lam in (2, 3):
        _ev(f"wp_via_s{lam}")(
            lambda c, u, i=lam, s=f"sigma{lam}": c.e(i) + (c(s, u) / c("sigma", u)) ** 2
        )
        _ev(f"sigma{lam}_sq")(lambda c, u, s=f"sigma{lam}": c(s, u) ** 2)

    # ---- auxiliary zeta routes ----------------------------------------------
    for lam in (1, 2, 3):
        _ev(f"zeta{lam}_qcos")(
            lambda c, u, i=lam: _val(zeta_aux(c.lat, i, u, ZetaRoute.QSERIES, c.cfg, qseries_form="cos"))
        )

    quasi_pairs = {(1, 1), (2, 3), (3, 2)}
    for lam, lp in quasi_pairs:
        _ev(f"zeta{lam}_quasi_w{lp}")(
            lambda c, u, z=f"zeta{lam}", j=lp: c(z, u + 2 * c.w(j)) - c(z, u)
        )
        _ev(f"const_2eta{lp}_{lam}")(lambda c, u, j=lp: 2 * c.eta(j))
    _ev("zeta1_quasi_w1w3")(
        lambda c, u: c("zeta1", u + 2 * c.w(1) + 2 * c.w(3)) - c("zeta1", u)
    )
    _ev("const_2eta1_plus_2eta3")(lambda c, u: 2 * c.eta(1) + 2 * c.eta(3))

    # ---- first-kind differences ----------------------------------------------
    def delta_sigma4(c, u):
        num = c("sigma", c.w(1)) * c("sigma", u + c.w(2)) * c("sigma", u + c.w(3))
        den = c("sigma", c.w(2)) * c("sigma", c.w(3)) * c("sigma", u - c.w(1)) * c("sigma", u)
        return num / den

    _ev("delta_l1_sigma4")(delta_sigma4)

    def delta_eq7(c, u):
        t = _thetas(c.lat, locate(c.lat, u), c.cfg, deriv=True)
        idx = HALF_PERIOD_THETA[1]
        return (t[4 + idx] / t[idx] - t[4] / t[0]) / (2 * c.lat.omega1)

    _ev("delta_l1_eq7")(delta_eq7)

    def delta_eq8s(c, u):
        # Simplified theta-product form for lam = 2 (mu, nu = 3, 1), sign
        # fixed by the -1/u origin limit.
        il, im_, in_ = (HALF_PERIOD_THETA[i] for i in (2, *complement(2)))
        t = _thetas(c.lat, locate(c.lat, u), c.cfg)
        t0 = c.lc.nullwerte[il]
        return -(PI / (2 * c.lat.omega1)) * t0**2 * t[im_] * t[in_] / (t[il] * t[0])

    _ev("delta_l2_eq8s")(delta_eq8s)

    for lam, mu, nu in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        _ev(f"eq4_prod_{lam}{mu}")(
            lambda c, u, a=f"delta{lam}", b=f"delta{mu}": c(a, u) * c(b, u)
        )
        _ev(f"wp_minus_e{nu}")(lambda c, u, k=nu: c("wp", u) - c.e(k))
    _ev("eq5_delta_prod")(lambda c, u: 2 * c("delta1", u) * c("delta2", u) * c("delta3", u))
    _ev("eq6_ratio")(lambda c, u: c("delta1", u, "zetadiff") / c("delta2", u, "zetadiff"))
    _ev("eq6_sigma_ratio")(lambda c, u: (c("sigma2", u) / c("sigma1", u)) ** 2)
    _ev("eq6_lconst_1")(lambda c, u: c("delta1", u, "zetadiff") * c("sigma1", u) ** 2)
    _ev("eq6_lconst_2")(lambda c, u: c("delta2", u, "zetadiff") * c("sigma2", u) ** 2)
    _ev("eq6_dup_lhs")(
        lambda c, u: c("delta1", u, "zetadiff") * c("sigma1", u) ** 2 * c("sigma", u) ** 2
    )
    _ev("eq6_dup_sigma2u")(lambda c, u: -c("sigma", 2 * u) / 2)
    _ev("eq6_dup_wp")(lambda c, u: c("wp_prime", u) * c("sigma", u) ** 4 / 2)

    # derivatives of the first kind
    _ev("ddelta_l1")(lambda c, u: c.dp(1, u))
    _ev("ddelta_l1_shift")(lambda c, u: c("wp", u) - c("wp", u + c.w(1)))

    def ddelta_form2(c, u):
        p = c("wp", u)
        ppp = 6 * p * p - c.lc.g2 / 2
        return 0.5 * (ppp - 4 * (p - c.e(2)) * (p - c.e(3))) / (p - c.e(1))

    _ev("ddelta_l1_form2")(ddelta_form2)
    _ev("eq9_lhs")(lambda c, u: c.dp(1, u) / c("delta1", u))
    _ev("eq9_rhs")(lambda c, u: c("zeta2", u) + c("zeta3", u) - c("zeta1", u) - c("zeta", u))
    _ev("eq10_lhs")(
        lambda c, u: 0.5 * c.dp(1, u) / c("delta1", u) + 0.5 * c.dp(2, u) / c("delta2", u)
    )
    _ev("eq11_lhs")(lambda c, u: (6 * c("wp", u) ** 2 - c.lc.g2 / 2) / c("wp_prime", u))
    _ev("eq11_delta_sum")(lambda c, u: c("delta1", u) + c("delta2", u) + c("delta3", u))
    _ev("eq11_duplication")(lambda c, u: 2 * c("zeta", 2 * u) - 4 * c("zeta", u))

    # ---- second-kind differences ----------------------------------------------
    # The eta terms follow from the definition zeta_lam = zeta(u + w_lam) -
    # eta_lam, and the quotient prefactor from subtracting two copies of the
    # single-index quotient form; both signs are checked by the cross routes.
    _ev("delta2_12_shiftdef")(
        lambda c, u: c("zeta", u + c.w(1)) - c("zeta", u + c.w(2)) + c.eta(2) - c.eta(1)
    )
    _ev("delta2_12_eq12")(
        lambda c, u: (c.e(1) - c.e(2))
        / 2
        * c("wp_prime", u)
        / ((c("wp", u) - c.e(1)) * (c("wp", u) - c.e(2)))
    )

    def delta2_sigma4(c, u):
        # Theorem 2.9: the four-sigma product with its half-period prefactor.
        num = c("sigma", c.w(1) - c.w(2)) * c("sigma", u - c.w(3)) * c("sigma", u)
        den = c("sigma", c.w(1)) * c("sigma", c.w(2)) * c("sigma", u + c.w(1)) * c("sigma", u + c.w(2))
        return num / den

    _ev("delta2_12_sigma4")(delta2_sigma4)
    _ev("eq14_lhs")(lambda c, u: c("delta12", u, "zetadiff") * c("delta3", u))
    _ev("const_e12")(lambda c, u: c.e(1) - c.e(2))
    _ev("eq15_lhs")(lambda c, u: c("delta23", u, "zetadiff") * c("delta1", u))
    _ev("const_e23")(lambda c, u: c.e(2) - c.e(3))
    # The table holds the cyclic pairs; Delta_{1,3} = -Delta_{3,1}.
    _ev("eq16_lhs")(
        lambda c, u: (c.e(1) - c.e(3))
        * (c.e(2) - c.e(3))
        / (-c("delta31", u) * c("delta23", u, "sigma"))
    )
    _ev("eq17_lhs")(
        lambda c, u: (-c("delta31", u) / (c.e(1) - c.e(3)))
        * ((c.e(2) - c.e(3)) / c("delta23", u, "sigma"))
    )
    # Half-period differences three ways: the cached constants, the nullwerte
    # fourth powers, and the pointwise delta product (the genuinely
    # independent route for the registry entries).
    for lam, mu, nu in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
        _ev(f"const_e{lam}{mu}_nullwerte")(
            lambda c, u, k=nu: (PI / (2 * c.lat.omega1)) ** 2
            * c.lc.nullwerte[HALF_PERIOD_THETA[k]] ** 4
        )
    _ev("eq18_prod_12")(lambda c, u: c("delta12", u, "zetadiff") * c("delta3", u, "zetadiff"))
    _ev("eq18_prod_13")(lambda c, u: -c("delta31", u, "zetadiff") * c("delta2", u, "zetadiff"))
    _ev("eq18_prod_23")(lambda c, u: c("delta23", u, "zetadiff") * c("delta1", u, "zetadiff"))

    _ev("sigid_12_lhs")(lambda c, u: c("sigma1", u) ** 2 + (c.e(1) - c.e(2)) * c("sigma", u) ** 2)
    _ev("sigid_23_lhs")(lambda c, u: c("sigma2", u) ** 2 + (c.e(2) - c.e(3)) * c("sigma", u) ** 2)

    _ev("ddelta2_12")(lambda c, u: c.d2p(1, 2, u))
    _ev("ddelta2_12_shift")(lambda c, u: c("wp", u + c.w(2)) - c("wp", u + c.w(1)))

    def ddelta2_form1(c, u):
        p = c("wp", u)
        return (c.e(1) - c.e(2)) * (
            (c.e(1) - c.e(3)) / (c.e(1) - p) + (c.e(2) - c.e(3)) / (c.e(2) - p) - 1
        )

    _ev("ddelta2_12_form1")(ddelta2_form1)

    # ---- two-point identities ---------------------------------------------------
    _ev("fs_lhs")(lambda c, z, w: c("wp", z) - c("wp", w))
    _ev("fs_rhs")(
        lambda c, z, w: c("sigma", z + w) * c("sigma", w - z) / (c("sigma", z) ** 2 * c("sigma", w) ** 2)
    )

    def w3term2_lhs(c, u, a):
        b, cc = c.w(2), c.w(3)
        return c("sigma", u + a) * c("sigma", u - a) * c("sigma", b + cc) * c("sigma", b - cc) + c(
            "sigma", u + b
        ) * c("sigma", u - b) * c("sigma", cc + a) * c("sigma", cc - a)

    def w3term2_rhs(c, u, a):
        b, cc = c.w(2), c.w(3)
        return -c("sigma", u + cc) * c("sigma", u - cc) * c("sigma", a + b) * c("sigma", a - b)

    _ev("w3term2_lhs")(w3term2_lhs)
    _ev("w3term2_rhs")(w3term2_rhs)
    _ev("w3term_lhs")(lambda c, u: w3term2_lhs(c, u, c.w(1)))
    _ev("w3term_rhs")(lambda c, u: w3term2_rhs(c, u, c.w(1)))

    # ---- integral formulas, checked by differentiating the closed forms --------
    _ev("eq19a_fd")(
        lambda c, u: 0.5 * _fd_log(lambda x: c("wp", x) - c.e(1), u, c.fd_step())
    )
    _ev("eq19b_fd")(
        lambda c, u: 0.5
        * _fd_log(lambda x: (c("wp", x) - c.e(1)) / (c("wp", x) - c.e(2)), u, c.fd_step())
    )
    _ev("eq19c_inv_delta")(lambda c, u: 1.0 / c("delta1", u, "zetadiff"))
    _ev("eq19c_fd")(
        lambda c, u: _fd_log(
            lambda x: (c("wp", x) - c.e(2)) / (c("wp", x) - c.e(3)), u, c.fd_step()
        )
        / (2 * (c.e(2) - c.e(3)))
    )
    _ev("eq19d_inv_delta2")(lambda c, u: 1.0 / c("delta12", u, "zetadiff"))
    _ev("eq19d_fd")(
        lambda c, u: _fd_log(lambda x: c("wp", x) - c.e(3), u, c.fd_step())
        / (2 * (c.e(1) - c.e(2)))
    )
    _ev("eq19e_wp_over_wpp")(lambda c, u: c("wp", u) / c("wp_prime", u))

    def eq19e_fd(c, u):
        h = c.fd_step()
        total = 0j
        for lam, mu in ((1, 2), (2, 3), (3, 1)):
            total += _fd_log(
                lambda x, a=lam, b=mu: (c("wp", x) - c.e(a)) / (c("wp", x) - c.e(b)), u, h
            ) / (12 * (c.e(lam) - c.e(mu)))
        return total

    _ev("eq19e_fd")(eq19e_fd)
    _ev("eq19f_inv_wpp")(lambda c, u: 1.0 / c("wp_prime", u))

    def eq19f_fd(c, u):
        h = c.fd_step()
        total = 0j
        for lam in (1, 2, 3):
            mu, nu = complement(lam)
            total += _fd_log(lambda x, a=lam: c("wp", x) - c.e(a), u, h) / (
                4 * (c.e(lam) - c.e(mu)) * (c.e(lam) - c.e(nu))
            )
        return total

    _ev("eq19f_fd")(eq19f_fd)

    # ---- Jacobi bridge -----------------------------------------------------------
    def jacobi_side(f):
        """Evaluator f(c, sn, cn, dn) of the Jacobi functions at one point."""
        return lambda c, u: f(c, *c.jac(u))

    _ev("t211sq_ns_lhs")(lambda c, u: c("delta1", u, "wp") * c("delta2", u, "wp"))
    _ev("t211sq_ns_rhs")(jacobi_side(lambda c, s, cn, d: (c.e(1) - c.e(3)) / s ** 2))
    _ev("t211sq_ds_lhs")(lambda c, u: c("delta1", u, "wp") * c("delta3", u, "wp"))
    _ev("t211sq_ds_rhs")(jacobi_side(lambda c, s, cn, d: (c.e(1) - c.e(3)) * (d / s) ** 2))
    _ev("t211sq_cs_lhs")(lambda c, u: c("delta2", u, "wp") * c("delta3", u, "wp"))
    _ev("t211sq_cs_rhs")(jacobi_side(lambda c, s, cn, d: (c.e(1) - c.e(3)) * (cn / s) ** 2))
    _ev("t211sq_snK_lhs")(lambda c, u: c("delta2", u, "wp") / c("delta1", u, "wp"))
    _ev("t211sq_snK_rhs")(jacobi_side(lambda c, s, cn, d: (cn / d) ** 2))
    _ev("t211sq_dn_lhs")(lambda c, u: c("delta3", u, "wp") / c("delta2", u, "wp"))
    _ev("t211sq_dn_rhs")(jacobi_side(lambda c, s, cn, d: d ** 2))
    _ev("t211sq_nc_lhs")(lambda c, u: c("delta1", u, "wp") / c("delta3", u, "wp"))
    _ev("t211sq_nc_rhs")(jacobi_side(lambda c, s, cn, d: 1.0 / cn ** 2))

    # Jacobi-function members of the delta rows carry a minus sign relative
    # to the naive quotient: delta_lam ~ -1/u at the origin while the
    # sn/cn/dn quotients behave as +1/x there.
    _ev("c212_r1_jac")(jacobi_side(lambda c, s, cn, d: -c.jp.scale * d / (s * cn)))
    _ev("c212_r2_jac")(jacobi_side(lambda c, s, cn, d: -c.jp.scale * cn / (d * s)))
    _ev("c212_r3_jac")(jacobi_side(lambda c, s, cn, d: -c.jp.scale * cn * d / s))

    _ev("ksq_const")(lambda c, u: c.lc.ksq)
    _ev("ksq_deltas")(
        lambda c, u: c("delta1", u) * c("delta23", u) / (c("delta2", u) * -c("delta31", u))
    )
    _ev("kpsq_const")(lambda c, u: c.lc.kpsq)
    _ev("kpsq_deltas")(
        lambda c, u: c("delta3", u) * c("delta12", u) / (c("delta2", u) * -c("delta31", u))
    )

    def t213_E_fd(c, u):
        s = c.jp.scale
        f = lambda x: (c("zeta3", x) + c.e(1) * x) / s
        return _fd(f, u, c.fd_step())

    _ev("t213_E_fd")(t213_E_fd)
    _ev("t213_E_rhs")(jacobi_side(lambda c, s, cn, d: c.jp.scale * d ** 2))

    def t213_pi_lhs(c, u, a):
        return 0.5 * (c("zeta3", u - a) - c("zeta3", u + a)) + c("zeta3", a)

    def t213_pi_rhs(c, u, a):
        s = c.jp.scale
        sa, ca, da = c.jac(a)
        su = c.jac(u)[0]
        k2 = c.lc.ksq
        return s * k2 * sa * ca * da * su * su / (1 - k2 * sa * sa * su * su)

    _ev("t213_pi_lhs")(t213_pi_lhs)
    _ev("t213_pi_rhs")(t213_pi_rhs)


_register_all()

# ---------------------------------------------------------------------------
# Default suite
# ---------------------------------------------------------------------------

_ALL = ("0", "w1", "w2", "w3")


def default_suite() -> tuple[IdentitySpec, ...]:
    """The complete identity registry, one spec per displayed identity in scope."""
    specs: list[IdentitySpec] = []
    add = specs.append

    # Auxiliary zeta: four routes and the quasi-periodicity law.
    for lam in (1, 2, 3):
        excl = (f"w{lam}",)
        add(IdentitySpec(f"prop24_theta_route_zeta{lam}", f"zeta{lam}:theta", f"zeta{lam}:shift", exclusions=excl))
        add(IdentitySpec(f"prop23_exp_form_zeta{lam}", f"zeta{lam}:qseries", f"zeta{lam}:shift", exclusions=excl))
        add(IdentitySpec(f"prop23_cos_form_zeta{lam}", f"zeta{lam}_qcos", f"zeta{lam}:qseries", exclusions=excl))
        add(IdentitySpec(
            f"prop22_partialfrac_zeta{lam}", f"zeta{lam}:partialfrac", f"zeta{lam}:shift",
            tol=PARTIALFRAC_TOL, exclusions=excl,
        ))
    for lam, lp in ((1, 1), (2, 3), (3, 2)):
        add(IdentitySpec(
            f"def21_quasiperiod_z{lam}_w{lp}", f"zeta{lam}_quasi_w{lp}", f"const_2eta{lp}_{lam}",
            exclusions=(f"w{lam}",),
        ))
    add(IdentitySpec("def21_quasiperiod_z1_combined", "zeta1_quasi_w1w3", "const_2eta1_plus_2eta3", exclusions=("w1",)))

    # Auxiliary sigma: theta form vs half-period shift form (both sides of eq 1/2).
    for lam in (1, 2, 3):
        add(IdentitySpec(f"eq2_sigma_aux_theta_vs_shift_s{lam}", f"sigma{lam}", f"sigma{lam}_shiftform"))

    # Classical core sanity: parity, differential equation, route independence.
    add(IdentitySpec("wp_even", "wp_neg", "wp", exclusions=("0",)))
    add(IdentitySpec("zeta_odd", "zeta_odd", "zeta", exclusions=("0",)))
    add(IdentitySpec("wp_lambda_independence_2", "wp_via_s2", "wp", exclusions=("0",)))
    add(IdentitySpec("wp_lambda_independence_3", "wp_via_s3", "wp", exclusions=("0",)))
    add(IdentitySpec("wp_diffeq_invariants", "wp_prime_sq", "wp_cubic", exclusions=("0",)))
    add(IdentitySpec("wp_diffeq_factored", "wp_prime_sq", "wp_factored", exclusions=("0",)))

    # First-kind differences: quotient, sigma, and theta-product forms.
    add(IdentitySpec("eq3_delta1_wp_quotient", "delta1:zetadiff", "delta1:wp", exclusions=("0", "w1")))
    add(IdentitySpec("thm26_delta1_sigma_quotient", "delta1:zetadiff", "delta1:sigma", exclusions=("0", "w1")))
    add(IdentitySpec("thm26_delta1_sigma_4factor", "delta1:zetadiff", "delta_l1_sigma4", exclusions=("0", "w1")))
    add(IdentitySpec("eq7_delta1_theta_dlog", "delta1:zetadiff", "delta_l1_eq7", exclusions=("0", "w1")))
    add(IdentitySpec("eq8_delta1_theta_product", "delta1:zetadiff", "delta1:theta", exclusions=("0", "w1")))
    add(IdentitySpec("eq8_simplified_delta2", "delta2:zetadiff", "delta_l2_eq8s", exclusions=("0", "w2")))
    add(IdentitySpec("thm26_delta3_sigma_quotient", "delta3:zetadiff", "delta3:sigma", exclusions=("0", "w3")))
    for lam, mu, nu in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        add(IdentitySpec(
            f"eq4_delta_product_{lam}{mu}", f"eq4_prod_{lam}{mu}", f"wp_minus_e{nu}", exclusions=_ALL,
        ))
    add(IdentitySpec("eq5_wp_prime_triple_product", "wp_prime", "eq5_delta_prod", exclusions=_ALL))
    add(IdentitySpec("eq6_delta_ratio_sigma", "eq6_ratio", "eq6_sigma_ratio", exclusions=_ALL))
    add(IdentitySpec("eq6_lambda_constancy", "eq6_lconst_1", "eq6_lconst_2", exclusions=_ALL))
    add(IdentitySpec("eq6_duplication_sigma2u", "eq6_dup_lhs", "eq6_dup_sigma2u", exclusions=("0", "w1")))
    add(IdentitySpec("eq6_duplication_wp_prime", "eq6_dup_lhs", "eq6_dup_wp", exclusions=("0", "w1")))

    # Derivative closed forms and the log-derivative identities.
    add(IdentitySpec("thm27_delta1_prime_shift", "ddelta_l1", "ddelta_l1_shift", exclusions=("0", "w1")))
    add(IdentitySpec("thm27_delta1_prime_wpp_form", "ddelta_l1", "ddelta_l1_form2", exclusions=("0", "w1")))
    add(IdentitySpec("eq9_dlog_delta1", "eq9_lhs", "eq9_rhs", exclusions=_ALL))
    add(IdentitySpec("eq10_dlog_pair", "eq10_lhs", "delta3:zetadiff", exclusions=_ALL))
    add(IdentitySpec("eq11_wpp_ratio_delta_sum", "eq11_lhs", "eq11_delta_sum", exclusions=_ALL))
    add(IdentitySpec("eq11_duplication_2zeta2u", "eq11_delta_sum", "eq11_duplication", exclusions=_ALL))

    # Second-kind differences: definition, quotient, sigma, and theta forms.
    add(IdentitySpec("def28_delta2_shift_form", "delta12:zetadiff", "delta2_12_shiftdef", exclusions=("w1", "w2")))
    add(IdentitySpec("eq12_delta2_wp_quotient", "delta12:zetadiff", "delta2_12_eq12", exclusions=("0", "w1", "w2")))
    add(IdentitySpec("eq20_delta2_wp_quotient", "delta12:zetadiff", "delta12:wp", exclusions=_ALL))
    add(IdentitySpec("thm29_delta2_sigma_quotient", "delta12:zetadiff", "delta2_12_sigma4", exclusions=("w1", "w2")))
    add(IdentitySpec("eq13_delta2_branch_convention", "delta12:zetadiff", "delta12:sigma", exclusions=("w1", "w2")))
    add(IdentitySpec("eq8_delta2_theta_simplified", "delta12:zetadiff", "delta12:theta", exclusions=("w1", "w2")))
    add(IdentitySpec("eq14_delta2_times_delta_constant", "eq14_lhs", "const_e12", exclusions=_ALL))
    add(IdentitySpec("eq15_delta2_times_delta_perm", "eq15_lhs", "const_e23", exclusions=_ALL))
    add(IdentitySpec("eq16_wp_from_delta2", "eq16_lhs", "wp_minus_e3", exclusions=_ALL))
    add(IdentitySpec("eq17_sigma_ratio_from_delta2", "eq17_lhs", "eq6_sigma_ratio", exclusions=_ALL))
    for lam, mu in ((1, 2), (1, 3), (2, 3)):
        add(IdentitySpec(
            f"eq18_ediff_nullwerte_{lam}{mu}", f"eq18_prod_{lam}{mu}", f"const_e{lam}{mu}_nullwerte",
            exclusions=_ALL,
        ))
    add(IdentitySpec("sigma_identity_12", "sigid_12_lhs", "sigma2_sq", exclusions=()))
    add(IdentitySpec("sigma_identity_23", "sigid_23_lhs", "sigma3_sq", exclusions=()))
    add(IdentitySpec("thm210_delta2_prime_shift", "ddelta2_12", "ddelta2_12_shift", exclusions=("w1", "w2")))
    add(IdentitySpec("thm210_delta2_prime_epole_form", "ddelta2_12", "ddelta2_12_form1", exclusions=("0", "w1", "w2")))

    # Two-point identities.
    add(IdentitySpec("frobenius_stickelberger", "fs_lhs", "fs_rhs", arity=2, exclusions=("0",)))
    add(IdentitySpec("weierstrass_3term_half_periods", "w3term_lhs", "w3term_rhs"))
    add(IdentitySpec("weierstrass_3term_two_point", "w3term2_lhs", "w3term2_rhs", arity=2))

    # Integral formulas: finite differences of the log closed forms.
    add(IdentitySpec("eq19_log_delta", "delta1:zetadiff", "eq19a_fd", tol=FD_TOL, exclusions=_ALL))
    add(IdentitySpec("eq19_log_delta2", "delta12:zetadiff", "eq19b_fd", tol=FD_TOL, exclusions=_ALL))
    add(IdentitySpec("eq19_inv_delta", "eq19c_inv_delta", "eq19c_fd", tol=FD_TOL, exclusions=_ALL))
    add(IdentitySpec("eq19_inv_delta2", "eq19d_inv_delta2", "eq19d_fd", tol=FD_TOL, exclusions=_ALL))
    add(IdentitySpec("eq19_wp_over_wp_prime", "eq19e_wp_over_wpp", "eq19e_fd", tol=FD_TOL, exclusions=_ALL))
    add(IdentitySpec("eq19_inv_wp_prime", "eq19f_inv_wpp", "eq19f_fd", tol=FD_TOL, exclusions=_ALL))

    # Jacobi bridge: squared transformation rows, delta-to-Jacobi rows, moduli.
    for row in ("ns", "ds", "cs", "snK", "dn", "nc"):
        add(IdentitySpec(f"thm211_squared_{row}", f"t211sq_{row}_lhs", f"t211sq_{row}_rhs", exclusions=_ALL))
    for row in ("r1", "r2", "r3"):
        add(IdentitySpec(f"cor212_row_{row}", f"delta{row[1]}:zetadiff", f"c212_{row}_jac", exclusions=_ALL))
    add(IdentitySpec("modulus_ksq_from_deltas", "ksq_deltas", "ksq_const", exclusions=_ALL))
    add(IdentitySpec("modulus_kpsq_from_deltas", "kpsq_deltas", "kpsq_const", exclusions=_ALL))
    add(IdentitySpec("thm213_E_derivative", "t213_E_fd", "t213_E_rhs", tol=FD_TOL, exclusions=("w3",)))
    add(IdentitySpec(
        "thm213_Pi_integrand", "t213_pi_lhs", "t213_pi_rhs",
        arity=2, exclusions=("w3", "sum:w3", "diff:w3"),
    ))

    return tuple(specs)


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------


def _exclusion_cosets(tokens) -> tuple[list[int], list[tuple[int, int]]]:
    """Split exclusion tokens into per-point coset indices and pair (sign, index) pairs."""
    table = {"0": 0, "w1": 1, "w2": 2, "w3": 3}
    single: list[int] = []
    pair: list[tuple[int, int]] = []
    for tok in tokens:
        kind, _, name = tok.rpartition(":")
        if name not in table or kind not in ("", "sum", "diff"):
            raise SuiteConfigError(f"unknown exclusion token {tok!r}")
        if kind:
            pair.append((+1 if kind == "sum" else -1, table[name]))
        else:
            single.append(table[name])
    return single, pair


def _sample_points(lat: Lattice, rng: random.Random, arity: int, single, pair):
    guard = POLE_GUARD * lat.min_period
    for _ in range(10_000):
        pts = []
        for _ in range(arity):
            a, b = rng.random(), rng.random()
            pts.append(2 * a * lat.omega1 + 2 * b * lat.omega3)
        ok = all(
            nearest(lat, p, k)[0] >= guard for p in [locate(lat, u) for u in pts] for k in single
        )
        if ok and arity == 2 and pair:
            z, w = pts
            ok = all(
                nearest(lat, locate(lat, z + sign * w), k)[0] >= guard for sign, k in pair
            )
        if ok:
            return pts
    raise SuiteConfigError("could not sample a guarded point after 10000 tries")


def _side(spec: IdentitySpec, name: str):
    """The evaluator for one side of spec: a table function, written `name`
    or `name:route`, or an EVALUATORS entry."""
    fn, _, route = name.partition(":")
    if fn in FUNCTIONS:
        route = route or None
        try:
            FUNCTIONS[fn].route(route)
        except ValueError:
            raise SuiteConfigError(f"{spec.name}: route {route!r} not valid for {fn!r}") from None
        return lambda c, u: c(fn, u, route)
    try:
        return EVALUATORS[name]
    except KeyError:
        raise SuiteConfigError(f"{spec.name}: unknown evaluator {name!r}") from None


def _residual(ctx: _Ctx, lhs, rhs, pts) -> float:
    """Relative residual of one identity at one sample."""
    a = lhs(ctx, *pts)
    b = rhs(ctx, *pts)
    return abs(a - b) / max(abs(a), abs(b), RESIDUAL_FLOOR)


def run_suite(
    lat: Lattice,
    suite,
    n: int = 100,
    seed: int = 0,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> list[IdentityReport]:
    """Evaluate every identity at n guarded sample points; deterministic in seed.

    An identity whose side raises one of SAMPLE_ERRORS gets a failed report
    naming the error (see IdentityReport), and the rest of the suite runs.
    """
    if n < 1:
        raise SuiteConfigError("n must be >= 1")
    ctx = _Ctx(lat, cfg)
    reports = []
    for index, spec in enumerate(suite):
        lhs, rhs = _side(spec, spec.lhs), _side(spec, spec.rhs)
        if spec.arity not in (1, 2):
            raise SuiteConfigError(f"{spec.name}: arity must be 1 or 2")
        single, pair = _exclusion_cosets(spec.exclusions)
        rng = random.Random(seed * 1_000_003 + index)
        residuals = []
        failures = []
        error = None
        for _ in range(n):
            pts = _sample_points(lat, rng, spec.arity, single, pair)
            try:
                rel = _residual(ctx, lhs, rhs, pts)
            except SAMPLE_ERRORS as exc:
                error = type(exc).__name__
                failures.append((tuple(pts), None))
                break
            residuals.append(rel)
            if not rel <= spec.tol:  # a NaN residual fails too
                failures.append((tuple(pts), rel))
        reports.append(
            IdentityReport(
                name=spec.name,
                samples=len(residuals),
                max_rel=max(residuals, default=None),
                mean_rel=sum(residuals) / len(residuals) if residuals else None,
                failures=tuple(failures),
                passed=not failures,
                error=error,
            )
        )
    return reports


def _json_number(x: float | None) -> float | None:
    """x, or None where JSON has no number for it (None, NaN, infinity)."""
    return x if x is not None and math.isfinite(x) else None


def report_to_json(report: IdentityReport) -> dict:
    failures = []
    for pts, rel in report.failures:
        entry = {"point": [pts[0].real, pts[0].imag], "residual": _json_number(rel)}
        if len(pts) > 1:
            entry["point2"] = [pts[1].real, pts[1].imag]
        failures.append(entry)
    out = {
        "name": report.name,
        "samples": report.samples,
        "maxRel": _json_number(report.max_rel),
        "meanRel": _json_number(report.mean_rel),
        "passed": report.passed,
        "failures": failures,
    }
    if report.error is not None:
        out["error"] = report.error
    return out


def reports_to_json(reports) -> list[dict]:
    return [report_to_json(r) for r in reports]
