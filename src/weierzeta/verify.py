"""Identity-certification harness.

Every displayed identity in scope is an IdentitySpec of `default_suite`,
written there once with both its sides.  A side is a function of the table
in `weierzeta.functions`, written `name` or `name:route`, or a callable
f(ctx, *points) of the run's context and the sample points.  run_suite
checks every spec, samples guarded points in the fundamental cell,
evaluates both sides, and reports relative residual statistics per
identity.  Deterministic given (lattice, suite, n, seed).  Only `verify`
and the package's suite names, on first use, import this module: `eval`,
`table` and `constants` read the table alone.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from collections import namedtuple
from types import FunctionType

from .errors import SuiteConfigError, WeierzetaError
from .functions import FUNCTIONS
from .jacobi import _jacobi, _sn_cn_dn
from .lattice import Lattice, Located, complement, constants, locate, near, reach
from .theta import DEFAULT_CONFIG, SeriesConfig
from .weier_core import _thetas, _val

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


IdentitySpec = namedtuple("IdentitySpec", "name lhs rhs arity tol exclusions", defaults=(1, 1e-9, ()))
IdentitySpec.__doc__ = """One checkable identity: its two sides, tolerance, loci to avoid.

    A side is either a table function, written `name` or `name:route`, or a
    callable f(ctx, *points): ctx is the run's `_Ctx`, whose call ctx(name,
    u, route) reads a table function, and points are the arity sample
    points.  A table function reads one point, so both sides of an arity 2
    identity are callables.  `tol` is a finite residual bound >= 0.  Each
    exclusion token is "0" or "w1".."w3", a coset every sample point keeps
    away from, or for arity 2 one of those after "sum:" or "diff:", a coset
    z + w or z - w keeps away from."""


IdentityReport = namedtuple(
    "IdentityReport", "name samples max_rel mean_rel failures passed error", defaults=(None,)
)
IdentityReport.__doc__ = """Residual statistics of one identity over its samples.

    When a side raised one of SAMPLE_ERRORS, the identity stopped there:
    `error` names the exception type, the point that raised is the last
    entry of `failures` with residual None, and the statistics cover the
    `samples` points evaluated before it (None when there were none).  A
    residual that is not <= the tolerance, NaN included, is a failure;
    `report_to_json` writes a non-finite residual or statistic as null.
    """


class _Ctx:
    """Per-(lattice, config) evaluation context shared by all sides.  Each
    point is located on the lattice under the config (`at`), so it carries
    both into every kernel, and the lattice's record `lc` goes beside it;
    the sides read its constants there, the Jacobi `scale` among them.

    `memo` holds the value of each table function call, keyed on (name,
    route name, u), so a side that needs a value twice, or both sides of an
    identity, evaluate it once.  `points` holds one located point per
    distinct u (`at`), seeded with the sample points as `_sample_points`
    located them, so every side that reads u shares its one location and its
    theta pass.  run_suite empties both at each identity.  A call that raises
    stores no value and raises again when repeated.  `entries` holds each
    (name, route name) resolved to its table entry's run and route member
    (`entry`), for the whole run.  The table is its one way to a kernel,
    but for `jac` (sn, cn and dn in one call, behind the table's Jacobi
    guard) and the theta-level sides.
    """

    def __init__(self, lat: Lattice, cfg: SeriesConfig):
        self.lat = lat
        self.cfg = cfg
        self.lc = constants(lat, cfg)
        self.memo = {}
        self.points = {}
        self.entries = {}

    def __call__(self, name: str, u: complex, route: str | None = None) -> complex:
        """Value of the table function name at u on route, by its table
        entry's run on the route member it resolves to, kept in `memo`;
        raises at a pole."""
        key = (name, route, u)
        if key in self.memo:
            return self.memo[key]
        run, member = self.entry(name, route)
        value = self.memo[key] = _val(run(self.lc, self.at(u), None, member))
        return value

    def entry(self, name: str, route: str | None) -> tuple:
        """(run, route member) of the table function name on route, resolved
        on first use; ValueError for a route it does not accept."""
        found = self.entries.get((name, route))
        if found is None:
            f = FUNCTIONS[name]
            found = self.entries[name, route] = (f.run, f.route(route))
        return found

    def at(self, u: complex) -> Located:
        """The located point u of the current identity, located on first use."""
        p = self.points.get(u)
        if p is None:
            p = self.points[u] = locate(self.lat, u, self.cfg)
        return p

    def jac(self, u: complex) -> tuple:
        """(sn, cn, dn) at the Jacobi argument scale*u, the table's sn, cn
        and dn in one kernel call behind their guard (`jacobi._jacobi`);
        raises on a degenerate lattice and at their shared poles."""
        return _val(_jacobi(_sn_cn_dn, self.lc, self.at(u)))

    def w(self, lam):
        return self.lat.half_period(lam)

    def e(self, lam):
        return self.lc.e(lam)

    def eta(self, lam):
        return self.lc.eta(lam)

    def fd_step(self) -> float:
        return FD_STEP * self.lat.min_period


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
# Default suite
# ---------------------------------------------------------------------------

_ALL = ("0", "w1", "w2", "w3")


def default_suite() -> tuple[IdentitySpec, ...]:
    """The complete identity registry, one spec per displayed identity in
    scope, each written once with both its sides."""
    specs: list[IdentitySpec] = []
    add = specs.append

    # Auxiliary zeta: four routes, the q-series cos form and the quasi-periodicity law.
    for lam in (1, 2, 3):
        excl = (f"w{lam}",)
        add(IdentitySpec(f"prop24_theta_route_zeta{lam}", f"zeta{lam}:theta", f"zeta{lam}:shift", exclusions=excl))
        add(IdentitySpec(f"prop23_exp_form_zeta{lam}", f"zeta{lam}:qseries", f"zeta{lam}:shift", exclusions=excl))
        add(IdentitySpec(f"prop23_cos_form_zeta{lam}", f"zeta{lam}_cos", f"zeta{lam}:qseries", exclusions=excl))
        add(IdentitySpec(
            f"prop22_partialfrac_zeta{lam}", f"zeta{lam}:partialfrac", f"zeta{lam}:shift",
            tol=PARTIALFRAC_TOL, exclusions=excl,
        ))
    for lam, lp in ((1, 1), (2, 3), (3, 2)):
        add(IdentitySpec(
            f"def21_quasiperiod_z{lam}_w{lp}", lambda c, u, z=f"zeta{lam}", j=lp: c(z, u + 2 * c.w(j)) - c(z, u),
            lambda c, u, j=lp: 2 * c.eta(j), exclusions=(f"w{lam}",),
        ))
    add(IdentitySpec(
        "def21_quasiperiod_z1_combined", lambda c, u: c("zeta1", u + 2 * c.w(1) + 2 * c.w(3)) - c("zeta1", u),
        lambda c, u: 2 * c.eta(1) + 2 * c.eta(3), exclusions=("w1",),
    ))

    # Auxiliary sigma: theta form vs half-period shift form (both sides of eq 1/2).
    for lam in (1, 2, 3):
        add(IdentitySpec(
            f"eq2_sigma_aux_theta_vs_shift_s{lam}", f"sigma{lam}",
            lambda c, u, i=lam: cmath.exp(-c.eta(i) * u) * c("sigma", c.w(i) + u) / c("sigma", c.w(i)),
        ))

    # Classical core sanity: parity, differential equation, route independence.
    def wp_prime_sq(c, u):
        return c("wp_prime", u) ** 2

    add(IdentitySpec("wp_even", lambda c, u: c("wp", -u), "wp", exclusions=("0",)))
    add(IdentitySpec("zeta_odd", lambda c, u: -c("zeta", -u), "zeta", exclusions=("0",)))
    for lam in (2, 3):
        add(IdentitySpec(
            f"wp_lambda_independence_{lam}",
            lambda c, u, i=lam, s=f"sigma{lam}": c.e(i) + (c(s, u) / c("sigma", u)) ** 2, "wp", exclusions=("0",),
        ))
    add(IdentitySpec(
        "wp_diffeq_invariants", wp_prime_sq, lambda c, u: 4 * c("wp", u) ** 3 - c.lc.g2 * c("wp", u) - c.lc.g3,
        exclusions=("0",),
    ))
    add(IdentitySpec(
        "wp_diffeq_factored", wp_prime_sq,
        lambda c, u: 4 * (c("wp", u) - c.e(1)) * (c("wp", u) - c.e(2)) * (c("wp", u) - c.e(3)), exclusions=("0",),
    ))

    # First-kind differences: quotient, sigma, and theta-product forms.
    def delta_sigma4(c, u):
        num = c("sigma", c.w(1)) * c("sigma", u + c.w(2)) * c("sigma", u + c.w(3))
        den = c("sigma", c.w(2)) * c("sigma", c.w(3)) * c("sigma", u - c.w(1)) * c("sigma", u)
        return num / den

    def delta_eq7(c, u):
        t = _thetas(c.at(u), deriv=True)
        return (t[5] / t[1] - t[4] / t[0]) / (2 * c.lat.omega1)

    def delta_eq8s(c, u):
        # Simplified theta-product form for lam = 2 (mu, nu = 3, 1), sign
        # fixed by the -1/u origin limit.
        mu, nu = complement(2)
        t = _thetas(c.at(u))
        t0 = c.lc.nullwerte[2]
        return -(PI / (2 * c.lat.omega1)) * t0**2 * t[mu] * t[nu] / (t[2] * t[0])

    add(IdentitySpec("eq3_delta1_wp_quotient", "delta1:zetadiff", "delta1:wp", exclusions=("0", "w1")))
    add(IdentitySpec("thm26_delta1_sigma_quotient", "delta1:zetadiff", "delta1:sigma", exclusions=("0", "w1")))
    add(IdentitySpec("thm26_delta1_sigma_4factor", "delta1:zetadiff", delta_sigma4, exclusions=("0", "w1")))
    add(IdentitySpec("eq7_delta1_theta_dlog", "delta1:zetadiff", delta_eq7, exclusions=("0", "w1")))
    add(IdentitySpec("eq8_delta1_theta_product", "delta1:zetadiff", "delta1:theta", exclusions=("0", "w1")))
    add(IdentitySpec("eq8_simplified_delta2", "delta2:zetadiff", delta_eq8s, exclusions=("0", "w2")))
    add(IdentitySpec("thm26_delta3_sigma_quotient", "delta3:zetadiff", "delta3:sigma", exclusions=("0", "w3")))
    for lam, mu, nu in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        add(IdentitySpec(
            f"eq4_delta_product_{lam}{mu}", lambda c, u, a=f"delta{lam}", b=f"delta{mu}": c(a, u) * c(b, u),
            lambda c, u, k=nu: c("wp", u) - c.e(k), exclusions=_ALL,
        ))
    add(IdentitySpec(
        "eq5_wp_prime_triple_product", "wp_prime",
        lambda c, u: 2 * c("delta1", u) * c("delta2", u) * c("delta3", u), exclusions=_ALL,
    ))

    def eq6_sigma_ratio(c, u):
        return (c("sigma2", u) / c("sigma1", u)) ** 2

    def eq6_dup_lhs(c, u):
        return c("delta1", u, "zetadiff") * c("sigma1", u) ** 2 * c("sigma", u) ** 2

    add(IdentitySpec(
        "eq6_delta_ratio_sigma", lambda c, u: c("delta1", u, "zetadiff") / c("delta2", u, "zetadiff"),
        eq6_sigma_ratio, exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq6_lambda_constancy", lambda c, u: c("delta1", u, "zetadiff") * c("sigma1", u) ** 2,
        lambda c, u: c("delta2", u, "zetadiff") * c("sigma2", u) ** 2, exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq6_duplication_sigma2u", eq6_dup_lhs, lambda c, u: -c("sigma", 2 * u) / 2, exclusions=("0", "w1"),
    ))
    add(IdentitySpec(
        "eq6_duplication_wp_prime", eq6_dup_lhs, lambda c, u: c("wp_prime", u) * c("sigma", u) ** 4 / 2,
        exclusions=("0", "w1"),
    ))

    # Derivative closed forms and the log-derivative identities.
    def ddelta_form2(c, u):
        p = c("wp", u)
        ppp = 6 * p * p - c.lc.g2 / 2
        return 0.5 * (ppp - 4 * (p - c.e(2)) * (p - c.e(3))) / (p - c.e(1))

    def eq11_delta_sum(c, u):
        return c("delta1", u) + c("delta2", u) + c("delta3", u)

    add(IdentitySpec(
        "thm27_delta1_prime_shift", "delta1_prime", lambda c, u: c("wp", u) - c("wp", u + c.w(1)),
        exclusions=("0", "w1"),
    ))
    add(IdentitySpec("thm27_delta1_prime_wpp_form", "delta1_prime", ddelta_form2, exclusions=("0", "w1")))
    add(IdentitySpec(
        "eq9_dlog_delta1", lambda c, u: c("delta1_prime", u) / c("delta1", u),
        lambda c, u: c("zeta2", u) + c("zeta3", u) - c("zeta1", u) - c("zeta", u), exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq10_dlog_pair",
        lambda c, u: 0.5 * c("delta1_prime", u) / c("delta1", u) + 0.5 * c("delta2_prime", u) / c("delta2", u),
        "delta3:zetadiff", exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq11_wpp_ratio_delta_sum", lambda c, u: (6 * c("wp", u) ** 2 - c.lc.g2 / 2) / c("wp_prime", u),
        eq11_delta_sum, exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq11_duplication_2zeta2u", eq11_delta_sum, lambda c, u: 2 * c("zeta", 2 * u) - 4 * c("zeta", u),
        exclusions=_ALL,
    ))

    # Second-kind differences: definition, quotient, sigma, and theta forms.
    # The eta terms follow from the definition zeta_lam = zeta(u + w_lam) -
    # eta_lam, and the quotient prefactor from subtracting two copies of the
    # single-index quotient form; both signs are checked by the cross routes.
    def delta2_sigma4(c, u):
        # Theorem 2.9: the four-sigma product with its half-period prefactor.
        num = c("sigma", c.w(1) - c.w(2)) * c("sigma", u - c.w(3)) * c("sigma", u)
        den = c("sigma", c.w(1)) * c("sigma", c.w(2)) * c("sigma", u + c.w(1)) * c("sigma", u + c.w(2))
        return num / den

    add(IdentitySpec(
        "def28_delta2_shift_form", "delta12:zetadiff",
        lambda c, u: c("zeta", u + c.w(1)) - c("zeta", u + c.w(2)) + c.eta(2) - c.eta(1), exclusions=("w1", "w2"),
    ))
    add(IdentitySpec(
        "eq12_delta2_wp_quotient", "delta12:zetadiff",
        lambda c, u: (c.e(1) - c.e(2)) / 2 * c("wp_prime", u) / ((c("wp", u) - c.e(1)) * (c("wp", u) - c.e(2))),
        exclusions=("0", "w1", "w2"),
    ))
    add(IdentitySpec("eq20_delta2_wp_quotient", "delta12:zetadiff", "delta12:wp", exclusions=_ALL))
    add(IdentitySpec("thm29_delta2_sigma_quotient", "delta12:zetadiff", delta2_sigma4, exclusions=("w1", "w2")))
    add(IdentitySpec("eq13_delta2_branch_convention", "delta12:zetadiff", "delta12:sigma", exclusions=("w1", "w2")))
    add(IdentitySpec("eq8_delta2_theta_simplified", "delta12:zetadiff", "delta12:theta", exclusions=("w1", "w2")))
    add(IdentitySpec(
        "eq14_delta2_times_delta_constant", lambda c, u: c("delta12", u, "zetadiff") * c("delta3", u),
        lambda c, u: c.e(1) - c.e(2), exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq15_delta2_times_delta_perm", lambda c, u: c("delta23", u, "zetadiff") * c("delta1", u),
        lambda c, u: c.e(2) - c.e(3), exclusions=_ALL,
    ))
    # The table holds the cyclic pairs; Delta_{1,3} = -Delta_{3,1}.
    add(IdentitySpec(
        "eq16_wp_from_delta2",
        lambda c, u: (c.e(1) - c.e(3)) * (c.e(2) - c.e(3)) / (-c("delta31", u) * c("delta23", u, "sigma")),
        lambda c, u: c("wp", u) - c.e(3), exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq17_sigma_ratio_from_delta2",
        lambda c, u: (-c("delta31", u) / (c.e(1) - c.e(3))) * ((c.e(2) - c.e(3)) / c("delta23", u, "sigma")),
        eq6_sigma_ratio, exclusions=_ALL,
    ))
    # Half-period differences three ways: the cached constants, the nullwerte
    # fourth powers, and the pointwise delta product (the genuinely
    # independent route for the registry entries).
    for lam, mu, nu, delta_product in (
        (1, 2, 3, lambda c, u: c("delta12", u, "zetadiff") * c("delta3", u, "zetadiff")),
        (1, 3, 2, lambda c, u: -c("delta31", u, "zetadiff") * c("delta2", u, "zetadiff")),
        (2, 3, 1, lambda c, u: c("delta23", u, "zetadiff") * c("delta1", u, "zetadiff")),
    ):
        add(IdentitySpec(
            f"eq18_ediff_nullwerte_{lam}{mu}", delta_product,
            lambda c, u, k=nu: (PI / (2 * c.lat.omega1)) ** 2 * c.lc.nullwerte[k] ** 4, exclusions=_ALL,
        ))
    for lam, mu in ((1, 2), (2, 3)):
        add(IdentitySpec(
            f"sigma_identity_{lam}{mu}",
            lambda c, u, s=f"sigma{lam}", i=lam, j=mu: c(s, u) ** 2 + (c.e(i) - c.e(j)) * c("sigma", u) ** 2,
            lambda c, u, s=f"sigma{mu}": c(s, u) ** 2, exclusions=(),
        ))

    def ddelta2_form1(c, u):
        p = c("wp", u)
        return (c.e(1) - c.e(2)) * (
            (c.e(1) - c.e(3)) / (c.e(1) - p) + (c.e(2) - c.e(3)) / (c.e(2) - p) - 1
        )

    add(IdentitySpec(
        "thm210_delta2_prime_shift", "delta12_prime", lambda c, u: c("wp", u + c.w(2)) - c("wp", u + c.w(1)),
        exclusions=("w1", "w2"),
    ))
    add(IdentitySpec("thm210_delta2_prime_epole_form", "delta12_prime", ddelta2_form1, exclusions=("0", "w1", "w2")))

    # Two-point identities.
    def w3term2_lhs(c, u, a):
        b, cc = c.w(2), c.w(3)
        return c("sigma", u + a) * c("sigma", u - a) * c("sigma", b + cc) * c("sigma", b - cc) + c(
            "sigma", u + b
        ) * c("sigma", u - b) * c("sigma", cc + a) * c("sigma", cc - a)

    def w3term2_rhs(c, u, a):
        b, cc = c.w(2), c.w(3)
        return -c("sigma", u + cc) * c("sigma", u - cc) * c("sigma", a + b) * c("sigma", a - b)

    add(IdentitySpec(
        "frobenius_stickelberger", lambda c, z, w: c("wp", z) - c("wp", w),
        lambda c, z, w: c("sigma", z + w) * c("sigma", w - z) / (c("sigma", z) ** 2 * c("sigma", w) ** 2),
        arity=2, exclusions=("0",),
    ))
    add(IdentitySpec(
        "weierstrass_3term_half_periods",
        lambda c, u: w3term2_lhs(c, u, c.w(1)), lambda c, u: w3term2_rhs(c, u, c.w(1)),
    ))
    add(IdentitySpec("weierstrass_3term_two_point", w3term2_lhs, w3term2_rhs, arity=2))

    # Integral formulas, checked by finite differences of the log closed forms.
    def eq19e_fd(c, u):
        h = c.fd_step()
        total = 0j
        for lam, mu in ((1, 2), (2, 3), (3, 1)):
            total += _fd_log(
                lambda x, a=lam, b=mu: (c("wp", x) - c.e(a)) / (c("wp", x) - c.e(b)), u, h
            ) / (12 * (c.e(lam) - c.e(mu)))
        return total

    def eq19f_fd(c, u):
        h = c.fd_step()
        total = 0j
        for lam in (1, 2, 3):
            mu, nu = complement(lam)
            total += _fd_log(lambda x, a=lam: c("wp", x) - c.e(a), u, h) / (
                4 * (c.e(lam) - c.e(mu)) * (c.e(lam) - c.e(nu))
            )
        return total

    add(IdentitySpec(
        "eq19_log_delta", "delta1:zetadiff",
        lambda c, u: 0.5 * _fd_log(lambda x: c("wp", x) - c.e(1), u, c.fd_step()), tol=FD_TOL, exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq19_log_delta2", "delta12:zetadiff",
        lambda c, u: 0.5 * _fd_log(lambda x: (c("wp", x) - c.e(1)) / (c("wp", x) - c.e(2)), u, c.fd_step()),
        tol=FD_TOL, exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq19_inv_delta", lambda c, u: 1.0 / c("delta1", u, "zetadiff"),
        lambda c, u: _fd_log(lambda x: (c("wp", x) - c.e(2)) / (c("wp", x) - c.e(3)), u, c.fd_step())
        / (2 * (c.e(2) - c.e(3))),
        tol=FD_TOL, exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq19_inv_delta2", lambda c, u: 1.0 / c("delta12", u, "zetadiff"),
        lambda c, u: _fd_log(lambda x: c("wp", x) - c.e(3), u, c.fd_step()) / (2 * (c.e(1) - c.e(2))),
        tol=FD_TOL, exclusions=_ALL,
    ))
    add(IdentitySpec(
        "eq19_wp_over_wp_prime", lambda c, u: c("wp", u) / c("wp_prime", u), eq19e_fd, tol=FD_TOL, exclusions=_ALL,
    ))
    add(IdentitySpec("eq19_inv_wp_prime", lambda c, u: 1.0 / c("wp_prime", u), eq19f_fd, tol=FD_TOL, exclusions=_ALL))

    # Jacobi bridge: squared transformation rows, delta-to-Jacobi rows, moduli.
    def jacobi_side(f):
        """Side f(c, sn, cn, dn) of the Jacobi functions at one point."""
        return lambda c, u: f(c, *c.jac(u))

    for row, lhs, rhs in (
        ("ns", lambda c, u: c("delta1", u, "wp") * c("delta2", u, "wp"),
         lambda c, s, cn, d: (c.e(1) - c.e(3)) / s ** 2),
        ("ds", lambda c, u: c("delta1", u, "wp") * c("delta3", u, "wp"),
         lambda c, s, cn, d: (c.e(1) - c.e(3)) * (d / s) ** 2),
        ("cs", lambda c, u: c("delta2", u, "wp") * c("delta3", u, "wp"),
         lambda c, s, cn, d: (c.e(1) - c.e(3)) * (cn / s) ** 2),
        ("snK", lambda c, u: c("delta2", u, "wp") / c("delta1", u, "wp"), lambda c, s, cn, d: (cn / d) ** 2),
        ("dn", lambda c, u: c("delta3", u, "wp") / c("delta2", u, "wp"), lambda c, s, cn, d: d ** 2),
        ("nc", lambda c, u: c("delta1", u, "wp") / c("delta3", u, "wp"), lambda c, s, cn, d: 1.0 / cn ** 2),
    ):
        add(IdentitySpec(f"thm211_squared_{row}", lhs, jacobi_side(rhs), exclusions=_ALL))
    # Jacobi-function members of the delta rows carry a minus sign relative
    # to the naive quotient: delta_lam ~ -1/u at the origin while the
    # sn/cn/dn quotients behave as +1/x there.
    for lam, rhs in (
        (1, lambda c, s, cn, d: -c.lc.scale * d / (s * cn)),
        (2, lambda c, s, cn, d: -c.lc.scale * cn / (d * s)),
        (3, lambda c, s, cn, d: -c.lc.scale * cn * d / s),
    ):
        add(IdentitySpec(f"cor212_row_r{lam}", f"delta{lam}:zetadiff", jacobi_side(rhs), exclusions=_ALL))
    add(IdentitySpec(
        "modulus_ksq_from_deltas",
        lambda c, u: c("delta1", u) * c("delta23", u) / (c("delta2", u) * -c("delta31", u)), lambda c, u: c.lc.ksq,
        exclusions=_ALL,
    ))
    add(IdentitySpec(
        "modulus_kpsq_from_deltas",
        lambda c, u: c("delta3", u) * c("delta12", u) / (c("delta2", u) * -c("delta31", u)), lambda c, u: c.lc.kpsq,
        exclusions=_ALL,
    ))

    def t213_E_fd(c, u):
        s = c.lc.scale
        f = lambda x: (c("zeta3", x) + c.e(1) * x) / s
        return _fd(f, u, c.fd_step())

    def t213_pi_rhs(c, u, a):
        s = c.lc.scale
        sa, ca, da = c.jac(a)
        su = c.jac(u)[0]
        k2 = c.lc.ksq
        return s * k2 * sa * ca * da * su * su / (1 - k2 * sa * sa * su * su)

    add(IdentitySpec(
        "thm213_E_derivative", t213_E_fd, jacobi_side(lambda c, s, cn, d: c.lc.scale * d ** 2),
        tol=FD_TOL, exclusions=("w3",),
    ))
    add(IdentitySpec(
        "thm213_Pi_integrand", lambda c, u, a: 0.5 * (c("zeta3", u - a) - c("zeta3", u + a)) + c("zeta3", a),
        t213_pi_rhs, arity=2, exclusions=("w3", "sum:w3", "diff:w3"),
    ))

    return tuple(specs)


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------


def _exclusion_cosets(spec: IdentitySpec) -> tuple[list[int], list[tuple[int, int]]]:
    """Split spec's exclusion tokens into per-point coset indices and pair (sign, index) pairs."""
    table = {"0": 0, "w1": 1, "w2": 2, "w3": 3}
    single: list[int] = []
    pair: list[tuple[int, int]] = []
    for tok in spec.exclusions:
        kind, _, name = tok.rpartition(":")
        if name not in table or kind not in ("", "sum", "diff"):
            raise SuiteConfigError(f"{spec.name}: unknown exclusion token {tok!r}")
        if kind:
            pair.append((+1 if kind == "sum" else -1, table[name]))
        else:
            single.append(table[name])
    return single, pair


def _sample_points(ctx: _Ctx, rng: random.Random, spec: IdentitySpec, single, pair) -> list[Located]:
    """spec.arity points drawn uniformly in the fundamental cell of ctx's
    lattice, each at least POLE_GUARD * min_period from the cosets in single,
    and for two points z, w each z + sign*w of pair from its coset: the
    sample points, then the z + sign*w, each located once under ctx's config."""
    lat, cfg = ctx.lat, ctx.cfg
    guard = POLE_GUARD * lat.min_period
    guard_reach = reach(guard, lat.min_period)
    for _ in range(10_000):
        located = []
        for _ in range(spec.arity):
            a, b = rng.random(), rng.random()
            located.append(locate(lat, 2 * a * lat.omega1 + 2 * b * lat.omega3, cfg))
        tests = [(p, k) for p in located for k in single]
        if spec.arity == 2:
            z, w = located[0].u, located[1].u
            for sign, k in pair:
                located.append(locate(lat, z + sign * w, cfg))
                tests.append((located[-1], k))
        for p, k in tests:
            if near(p, k, guard, guard_reach) is not None:
                break
        else:
            return located
    raise SuiteConfigError(f"{spec.name}: could not sample a guarded point after 10000 tries")


def _side(ctx: _Ctx, spec: IdentitySpec, side):
    """The evaluator of one side of spec: side itself when it is callable,
    else the table function it names, `name` or `name:route`, resolved by
    the run's context."""
    if callable(side):
        return side
    fn, _, route = side.partition(":") if isinstance(side, str) else ("", "", "")
    if fn not in FUNCTIONS:
        raise SuiteConfigError(f"{spec.name}: side {side!r} is neither a table function nor callable")
    route = route or None
    try:
        ctx.entry(fn, route)
    except ValueError:
        raise SuiteConfigError(f"{spec.name}: route {route!r} not valid for {fn!r}") from None
    return lambda c, u: c(fn, u, route)


def _check(ctx: _Ctx, spec: IdentitySpec) -> tuple:
    """(lhs, rhs, single, pair): the evaluators of spec's two sides and its
    exclusion cosets; SuiteConfigError naming spec for a side, an arity, an
    exclusion token or a tolerance it cannot run with.  A plain function side
    without *args must require 1 + arity positional parameters."""
    lhs, rhs = _side(ctx, spec, spec.lhs), _side(ctx, spec, spec.rhs)
    if not isinstance(spec.arity, int) or spec.arity not in (1, 2):
        raise SuiteConfigError(f"{spec.name}: arity must be 1 or 2")
    for label, side in (("lhs", spec.lhs), ("rhs", spec.rhs)):
        code = side.__code__ if isinstance(side, FunctionType) else None
        if code is not None and not code.co_flags & 0x04:  # 0x04 = inspect.CO_VARARGS, a side with *args
            required = code.co_argcount - len(side.__defaults__ or ())
            if required != 1 + spec.arity:
                raise SuiteConfigError(
                    f"{spec.name}: the {label} side requires {required} positional parameters, not 1 + {spec.arity}"
                )
    if spec.arity == 2 and not (callable(spec.lhs) and callable(spec.rhs)):
        raise SuiteConfigError(f"{spec.name}: arity 2 needs two callable sides; a table function reads one point")
    single, pair = _exclusion_cosets(spec)
    if not (isinstance(spec.tol, (int, float)) and 0 <= spec.tol < math.inf):
        raise SuiteConfigError(f"{spec.name}: tol must be finite and >= 0, got {spec.tol!r}")
    return lhs, rhs, single, pair


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

    Every spec is checked before the first sample is drawn, and n and seed
    must be integers: a malformed suite raises SuiteConfigError.  An
    identity whose side raises one of SAMPLE_ERRORS gets a failed report
    naming the error (see IdentityReport), and the rest of the suite runs.
    """
    try:
        n, seed = operator.index(n), operator.index(seed)
    except TypeError:
        raise SuiteConfigError(f"n and seed must be integers, got n={n!r}, seed={seed!r}") from None
    if n < 1:
        raise SuiteConfigError("n must be >= 1")
    ctx = _Ctx(lat, cfg)
    checked = [(spec, *_check(ctx, spec)) for spec in suite]
    reports = []
    for index, (spec, lhs, rhs, single, pair) in enumerate(checked):
        ctx.memo.clear()
        ctx.points.clear()
        rng = random.Random(seed * 1_000_003 + index)
        residuals = []
        failures = []
        error = None
        for _ in range(n):
            located = _sample_points(ctx, rng, spec, single, pair)
            for p in located:
                ctx.points.setdefault(p.u, p)
            pts = [p.u for p in located[: spec.arity]]
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
