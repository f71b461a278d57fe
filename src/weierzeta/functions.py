"""Function table: FUNCTIONS binds each public function name to its callable,
its routes and its need for a second argument.  `eval` and `table` read it
without loading the identity suite, which builds its sides on it too.
"""

from __future__ import annotations

from collections import namedtuple

from .aux_zeta import ZetaRoute, _zeta_aux
from .jacobi import _E_Z, _guarded_Pi, _record, _sn_cn_dn
from .lattice import constants
from .weier_core import _FINITE, EvalResult, _guarded, _sigma, _tuple_new, _wp, _wp_prime, _zeta_w
from .zeta_diff import DeltaRoute, _delta, _delta2


class Function(namedtuple("Function", "run routes needs_a", defaults=((), False))):
    """One public function as `eval`, `table` and the suite call it.

    run(lat, lc, cfg, p, a, route) returns an EvalResult at the point p
    located by the caller (`lattice.locate`; `eval` and `table` locate each
    point once, the suite each distinct point of an identity once).  It runs
    the function's kernel, not the public function, on the lattice's record
    lc (`table` looks it up once per command, the suite once per lattice),
    and looks it up itself only for lc None, after the pole guard where there
    is one (a Jacobi entry: before it, to refuse a degenerate lattice first).
    `routes` holds the accepted routes, the default first.
    """

    __slots__ = ()

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
    return _tuple_new(EvalResult, (value, _FINITE, None))


def _part(res: EvalResult, k: int) -> EvalResult:
    """Entry k of the tuple a Finite result holds; a pole result as it is."""
    return _finite(res.value[k]) if res.status is _FINITE else res


def _functions() -> dict:
    zeta_routes = (ZetaRoute.THETA, ZetaRoute.SHIFT, ZetaRoute.QSERIES, ZetaRoute.PARTIAL_FRACTION)
    delta_routes = (DeltaRoute.SIGMA_QUOTIENT, DeltaRoute.ZETA_DIFF, DeltaRoute.WP_QUOTIENT, DeltaRoute.THETA_QUOTIENT)
    delta2_routes = (DeltaRoute.WP_QUOTIENT, DeltaRoute.ZETA_DIFF, DeltaRoute.SIGMA_QUOTIENT, DeltaRoute.THETA_QUOTIENT)
    table = {
        "wp": Function(lambda lat, lc, cfg, p, *_: _guarded(_wp, lat, p, (0,), cfg, lc)),
        "wp_prime": Function(lambda lat, lc, cfg, p, *_: _guarded(_wp_prime, lat, p, (0,), cfg, lc)),
        "zeta": Function(lambda lat, lc, cfg, p, *_: _guarded(_zeta_w, lat, p, (0,), cfg, lc)),
    }
    for k in (0, 1, 2, 3):
        table[f"sigma{k or ''}"] = Function(
            lambda lat, lc, cfg, p, *_, k=k: _finite(_sigma(lat, lc or constants(lat, cfg), k, p, cfg))
        )
    for i in (1, 2, 3):
        table[f"zeta{i}"] = Function(
            lambda lat, lc, cfg, p, a, r, i=i: _guarded(_zeta_aux, lat, p, (i,), cfg, lc, i, r), zeta_routes
        )
        table[f"delta{i}"] = Function(
            lambda lat, lc, cfg, p, a, r, i=i: _guarded(_delta, lat, p, (0, i), cfg, lc, i, r), delta_routes
        )
    for i, j in ((1, 2), (2, 3), (3, 1)):
        table[f"delta{i}{j}"] = Function(
            lambda lat, lc, cfg, p, a, r, i=i, j=j: _guarded(_delta2, lat, p, (i, j), cfg, lc, i, j, r),
            delta2_routes,
        )
    for k, name in enumerate(("sn", "cn", "dn")):
        table[name] = Function(
            lambda lat, lc, cfg, p, *_, k=k: _part(_guarded(_sn_cn_dn, lat, p, (3,), cfg, _record(lat, lc, cfg).jacobi), k)
        )
    for k, name in enumerate(("E", "Z")):
        table[name] = Function(
            lambda lat, lc, cfg, p, *_, k=k: _part(_guarded(_E_Z, lat, p, (3,), cfg, _record(lat, lc, cfg)), k)
        )
    table["Pi"] = Function(
        lambda lat, lc, cfg, p, a, r: _part(_guarded_Pi(lat, lc, p, cfg, 0j if a is None else a), 2), needs_a=True
    )
    return table


FUNCTIONS = _functions()
