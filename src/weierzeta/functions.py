"""Function table: FUNCTIONS binds each public function name to its callable,
its routes and its need for a second argument.  `eval` and `table` read it
without loading the identity suite, which builds its sides on it too.

The table names every entry, route and need for a second argument without
loading a kernel module: `aux_zeta`, `zeta_diff` and `jacobi` each load at the
first read of one of their names here, which `route` makes for an entry with
routes and `run` for the others.  So a command loads only the layers its
function evaluates.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import constants
from .weier_core import _FINITE, EvalResult, _guarded, _sigma, _tuple_new, _wp, _wp_prime, _zeta_w


class _Kernel:
    """A kernel module before its first use here.  The first read of one of
    its names imports it and binds it in this one's place, so every later
    read is a plain module attribute read, which sees any rebinding of that
    attribute."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr: str):
        module = globals()[self.name] = __import__(self.name, globals(), None, (attr,), 1)
        return getattr(module, attr)


aux_zeta, zeta_diff, jacobi = _Kernel("aux_zeta"), _Kernel("zeta_diff"), _Kernel("jacobi")


class Function(namedtuple("Function", "run route_names needs_a route_enum", defaults=((), False, None))):
    """One public function as `eval`, `table` and the suite call it.

    run(lat, lc, cfg, p, a, route) returns an EvalResult at the point p
    located by the caller (`lattice.locate`; `eval` and `table` locate each
    point once, the suite each distinct point of an identity once).  It runs
    the function's kernel, not the public function, on the lattice's record
    lc (`table` looks it up once per command, the suite once per lattice),
    and looks it up itself only for lc None, after the pole guard where there
    is one (a Jacobi entry: before it, to refuse a degenerate lattice first).
    `route_names` names the accepted routes, the default first, by their
    member names in the route enum that `route_enum()` returns (reading it
    loads the kernel module); `routes` holds the members.
    """

    __slots__ = ()

    @property
    def routes(self) -> tuple:
        return tuple(getattr(self.route_enum(), n) for n in self.route_names)

    def route(self, name: str | None):
        """The route whose value is name, or the default for None; ValueError
        if this function does not accept it."""
        if self.route_names:
            enum = self.route_enum()
            if name is None:
                return getattr(enum, self.route_names[0])
            for member in self.route_names:
                r = getattr(enum, member)
                if r._value_ == name:
                    return r
        elif name is None:
            return None
        raise ValueError(f"route {name!r} not valid")


def _finite(value: complex) -> EvalResult:
    return _tuple_new(EvalResult, (value, _FINITE, None))


def _part(res: EvalResult, k: int) -> EvalResult:
    """Entry k of the tuple a Finite result holds; a pole result as it is."""
    return _finite(res.value[k]) if res.status is _FINITE else res


def _functions() -> dict:
    zeta_enum, delta_enum = lambda: aux_zeta.ZetaRoute, lambda: zeta_diff.DeltaRoute
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
            lambda lat, lc, cfg, p, a, r, i=i: _guarded(aux_zeta._zeta_aux, lat, p, (i,), cfg, lc, i, r),
            ("THETA", "SHIFT", "QSERIES", "PARTIAL_FRACTION"),
            route_enum=zeta_enum,
        )
        table[f"delta{i}"] = Function(
            lambda lat, lc, cfg, p, a, r, i=i: _guarded(zeta_diff._delta, lat, p, (0, i), cfg, lc, i, r),
            ("SIGMA_QUOTIENT", "ZETA_DIFF", "WP_QUOTIENT", "THETA_QUOTIENT"),
            route_enum=delta_enum,
        )
    for i, j in ((1, 2), (2, 3), (3, 1)):
        table[f"delta{i}{j}"] = Function(
            lambda lat, lc, cfg, p, a, r, i=i, j=j: _guarded(zeta_diff._delta2, lat, p, (i, j), cfg, lc, i, j, r),
            ("WP_QUOTIENT", "ZETA_DIFF", "SIGMA_QUOTIENT", "THETA_QUOTIENT"),
            route_enum=delta_enum,
        )
    for k, name in enumerate(("sn", "cn", "dn")):
        table[name] = Function(
            lambda lat, lc, cfg, p, *_, k=k: _part(
                _guarded(jacobi._sn_cn_dn, lat, p, (3,), cfg, jacobi._record(lat, lc, cfg).jacobi), k
            )
        )
    for k, name in enumerate(("E", "Z")):
        table[name] = Function(
            lambda lat, lc, cfg, p, *_, k=k: _part(
                _guarded(jacobi._E_Z, lat, p, (3,), cfg, jacobi._record(lat, lc, cfg)), k
            )
        )
    table["Pi"] = Function(
        lambda lat, lc, cfg, p, a, r: _part(jacobi._guarded_Pi(lat, lc, p, cfg, 0j if a is None else a), 2),
        needs_a=True,
    )
    return table


FUNCTIONS = _functions()
