"""Weierstrass elliptic function family with auxiliary zetas and zeta
differences, a Jacobi bridge, and a numerical identity-verification harness,
whose names (_SUITE_NAMES) load `weierzeta.verify` on first use.
"""

from .errors import (
    BranchAmbiguity,
    ConvergencePolicyError,
    DegenerateLattice,
    IdenticalIndices,
    InvalidPeriodRatio,
    NearZeroDenominator,
    PoleProximityError,
    SeriesDivergence,
    SuiteConfigError,
    ValueOverflow,
    WeierzetaError,
    ZeroPeriod,
)
from .theta import (
    DEFAULT_CONFIG,
    HALF_PERIOD_THETA,
    SeriesConfig,
    theta_dlog,
    theta_eval,
    theta_nullwerte,
)
from .lattice import (
    Lattice,
    LatticeConstants,
    build_lattice,
    complement,
    constants,
    constants_to_json,
    eisenstein_invariants,
    reduce_to_cell,
)
from .weier_core import (
    EvalResult,
    Status,
    sigma,
    sigma_aux,
    sigma_product,
    wp,
    wp_lattice_sum,
    wp_prime,
    zeta_lattice_sum,
    zeta_w,
)
from .aux_zeta import ZetaRoute, zeta_aux
from .zeta_diff import (
    DeltaConstants,
    DeltaRoute,
    constants_from_deltas,
    delta,
    delta2,
    delta2_prime,
    delta_prime,
)
from .jacobi import (
    JacobiParams,
    agm_complete_integrals,
    jacobi_E_Z,
    jacobi_E_Z_Pi,
    jacobi_params,
    sn_cn_dn,
)

__version__ = "0.1.0"

_SUITE_NAMES = {"IdentityReport", "IdentitySpec", "default_suite", "report_to_json", "reports_to_json", "run_suite"}


def __getattr__(name: str):
    if name in _SUITE_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
