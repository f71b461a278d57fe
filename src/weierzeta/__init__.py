"""Weierstrass elliptic function family with auxiliary zetas and zeta
differences, a Jacobi bridge, and a numerical identity-verification harness.

The package namespace is lazy (PEP 562): `import weierzeta` loads no
submodule.  Each public name loads its home module (`_HOME`) on first access
and is then stored here, so later accesses are plain attribute reads; the
identity suite's names load `weierzeta.verify`.  The kernel modules
(`_KERNELS`) load on first read too, so the function table reaches them as
attributes of the package.
"""

__version__ = "0.1.0"

_HOME = {
    name: module
    for module, names in {
        "errors": "BranchAmbiguity ConvergencePolicyError DegenerateLattice IdenticalIndices InvalidPeriodRatio"
        " NearZeroDenominator PoleProximityError SeriesDivergence SuiteConfigError ValueOverflow"
        " WeierzetaError ZeroPeriod",
        "theta": "DEFAULT_CONFIG SeriesConfig theta_dlog theta_eval theta_nullwerte",
        "lattice": "Lattice LatticeConstants build_lattice complement constants constants_to_json"
        " eisenstein_invariants reduce_to_cell",
        "weier_core": "EvalResult Status sigma sigma_aux sigma_product wp wp_lattice_sum wp_prime"
        " zeta_lattice_sum zeta_w",
        "aux_zeta": "ZetaRoute zeta_aux",
        "zeta_diff": "DeltaConstants DeltaRoute constants_from_deltas delta delta2 delta2_prime delta_prime",
        "jacobi": "agm_complete_integrals jacobi_E_Z jacobi_E_Z_Pi jacobi_params sn_cn_dn",
        "verify": "IdentityReport IdentitySpec default_suite report_to_json reports_to_json run_suite",
    }.items()
    for name in names.split()
}

__all__ = list(_HOME)

_KERNELS = ("aux_zeta", "zeta_diff", "jacobi")


def __getattr__(name: str):
    if name in _KERNELS:
        __import__(f"{__name__}.{name}")  # the import binds the module here
        return globals()[name]
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # from .module import name, kept here for every later access
    value = globals()[name] = getattr(__import__(module, globals(), None, (name,), 1), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
