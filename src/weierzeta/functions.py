"""Function table: FUNCTIONS binds each public function name to its callable,
its routes and its need for a second argument.  `eval` and `table` read it
without loading the identity suite, which builds its sides on it too.

The table names every entry, route and need for a second argument without
loading a kernel module: its entries read `aux_zeta`, `zeta_diff`, `jacobi`
and the route enums as attributes of the package, whose lazy namespace loads
each module at its first read, which `route` makes for an entry with routes
and `run` for the others.  So a command loads only the layers its function
evaluates.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .lattice import constants
from .weier_core import _FINITE, EvalResult, _guarded, _sigma, _tuple_new, _wp, _wp_prime, _zeta_w

package = sys.modules[__package__]


class Function(namedtuple("Function", "run default_route needs_a route_enum", defaults=(None, False, None))):
    """One public function as `eval`, `table` and the suite call it; the
    table holds every public evaluation at one lattice point, and the
    q-series cos form (`zeta{lam}_cos`), which only the table evaluates.

    run(lc, p, a, route) returns an EvalResult at the point p located by
    the caller (`lattice.locate`; `eval` and `table` locate each point once,
    the suite each distinct point of an identity once), which carries the
    lattice and series config it is evaluated on.  It runs the function's
    kernel, not the public function, on the lattice's record lc (`table`
    looks it up once per command, the suite once per lattice), and looks it
    up itself only for lc None, after the pole guard where there is one (a
    Jacobi entry: before it, in `jacobi._jacobi`, to refuse a degenerate
    lattice first).
    A function with routes accepts every member of the package's route enum
    named `route_enum` (reading it loads the kernel module), and
    `default_route` names the default member; `routes` holds the members,
    the default first.
    """

    __slots__ = ()

    @property
    def routes(self) -> tuple:
        if self.route_enum is None:
            return ()
        default = self.route(None)
        return (default, *(r for r in type(default) if r is not default))

    def route(self, name: str | None):
        """The route whose value is name, or the default for None; ValueError
        if this function does not accept it."""
        if self.route_enum is not None:
            enum = getattr(package, self.route_enum)
            return enum[self.default_route] if name is None else enum(name)
        if name is None:
            return None
        raise ValueError(f"route {name!r} not valid")


def _finite(value: complex) -> EvalResult:
    return _tuple_new(EvalResult, (value, _FINITE, None))


def _part(res: EvalResult, k: int) -> EvalResult:
    """Entry k of the tuple a Finite result holds; a pole result as it is."""
    return _finite(res.value[k]) if res.status is _FINITE else res


def _functions() -> dict:
    table = {
        "wp": Function(lambda lc, p, *_: _guarded(_wp, p, (0,), lc)),
        "wp_prime": Function(lambda lc, p, *_: _guarded(_wp_prime, p, (0,), lc)),
        "zeta": Function(lambda lc, p, *_: _guarded(_zeta_w, p, (0,), lc)),
    }
    for k in (0, 1, 2, 3):
        table[f"sigma{k or ''}"] = Function(
            lambda lc, p, *_, k=k: _finite(_sigma(lc or constants(p.lat, p.cfg), p, k))
        )
    for i in (1, 2, 3):
        table[f"zeta{i}"] = Function(
            lambda lc, p, a, r, i=i: _guarded(package.aux_zeta._zeta_aux, p, (i,), lc, i, r),
            "THETA", route_enum="ZetaRoute",
        )
        table[f"zeta{i}_cos"] = Function(
            lambda lc, p, *_, i=i: _guarded(package.aux_zeta._qseries, p, (i,), lc, i, True)
        )
        table[f"delta{i}"] = Function(
            lambda lc, p, a, r, i=i: _guarded(package.zeta_diff._delta, p, (0, i), lc, i, r),
            "SIGMA_QUOTIENT", route_enum="DeltaRoute",
        )
        table[f"delta{i}_prime"] = Function(
            lambda lc, p, *_, i=i: _guarded(package.zeta_diff._delta_prime, p, (0, i), lc, i)
        )
    for i, j in ((1, 2), (2, 3), (3, 1)):
        table[f"delta{i}{j}"] = Function(
            lambda lc, p, a, r, i=i, j=j: _guarded(package.zeta_diff._delta2, p, (i, j), lc, i, j, r),
            "WP_QUOTIENT", route_enum="DeltaRoute",
        )
        table[f"delta{i}{j}_prime"] = Function(
            lambda lc, p, *_, i=i, j=j: _guarded(package.zeta_diff._delta2_prime, p, (i, j), lc, i, j)
        )
    for kernel, names in (("_sn_cn_dn", ("sn", "cn", "dn")), ("_E_Z", ("E", "Z"))):
        for k, name in enumerate(names):
            table[name] = Function(
                lambda lc, p, *_, kernel=kernel, k=k: _part(
                    package.jacobi._jacobi(getattr(package.jacobi, kernel), lc, p), k
                )
            )
    table["Pi"] = Function(
        lambda lc, p, a, r: _part(package.jacobi._guarded_Pi(lc, p, 0j if a is None else a), 2), needs_a=True
    )
    return table


FUNCTIONS = _functions()
