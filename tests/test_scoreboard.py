"""The identity suite on tall and thin lattices, row by row.

`verify --n 20 --seed 12345` at tau = 8i, 16i, 40i and 0.45+0.04i, one test
per (tau, identity).  A row that passes must keep passing.  A row listed in
FAILING fails today, and is a strict xfail naming the ROADMAP item that
should remove it; its test fails outright if the row starts to pass (strict)
or fails in another way than the one listed.  The suite's tolerances are
used as they are and no row is left out.
"""

from functools import lru_cache

import pytest

from weierzeta import build_lattice, default_suite, run_suite

TAUS = {"8i": 8j, "16i": 16j, "40i": 40j, "0.45+0.04i": 0.45 + 0.04j}

# The Jacobi rows, refused by jacobi_params' degeneracy threshold.
_JACOBI = (
    "thm211_squared_ns thm211_squared_ds thm211_squared_cs thm211_squared_snK"
    " thm211_squared_dn thm211_squared_nc cor212_row_r1 cor212_row_r2 cor212_row_r3"
    " thm213_E_derivative thm213_Pi_integrand"
)
# Residuals of the tall lattices common to 8i, 16i and 40i.
_RESIDUAL = (
    "wp_diffeq_invariants wp_diffeq_factored eq3_delta1_wp_quotient"
    " thm26_delta1_sigma_quotient eq7_delta1_theta_dlog eq8_delta1_theta_product"
    " eq4_delta_product_12 eq4_delta_product_31 eq6_duplication_wp_prime"
    " thm27_delta1_prime_shift thm27_delta1_prime_wpp_form eq9_dlog_delta1 eq10_dlog_pair"
    " eq11_wpp_ratio_delta_sum eq12_delta2_wp_quotient eq16_wp_from_delta2 sigma_identity_12"
    " thm210_delta2_prime_epole_form eq19_log_delta eq19_log_delta2 eq19_inv_delta2"
)

# How each listed row fails: "residual" (a residual above the tolerance) or
# the name of the error that stopped it.
FAILING = {
    "8i": {
        **dict.fromkeys(_RESIDUAL.split(), "residual"),
        **dict.fromkeys(
            "thm26_delta1_sigma_4factor eq6_delta_ratio_sigma eq6_lambda_constancy"
            " eq6_duplication_sigma2u eq15_delta2_times_delta_perm eq17_sigma_ratio_from_delta2"
            " eq18_ediff_nullwerte_23 sigma_identity_23 frobenius_stickelberger eq19_inv_delta"
            " eq19_wp_over_wp_prime eq19_inv_wp_prime".split(),
            "residual",
        ),
        **dict.fromkeys(_JACOBI.split(), "DegenerateLattice"),
    },
    "16i": {
        **dict.fromkeys(_RESIDUAL.split(), "residual"),
        **dict.fromkeys(
            "thm26_delta1_sigma_4factor eq6_delta_ratio_sigma eq6_lambda_constancy"
            " eq6_duplication_sigma2u eq15_delta2_times_delta_perm eq17_sigma_ratio_from_delta2"
            " eq18_ediff_nullwerte_23 thm210_delta2_prime_shift".split(),
            "residual",
        ),
        **dict.fromkeys(
            "frobenius_stickelberger eq19_inv_delta eq19_wp_over_wp_prime eq19_inv_wp_prime".split(),
            "ZeroDivisionError",
        ),
        **dict.fromkeys(_JACOBI.split(), "DegenerateLattice"),
    },
    "40i": {
        **dict.fromkeys(_RESIDUAL.split(), "residual"),
        "thm210_delta2_prime_shift": "residual",
        "eq2_sigma_aux_theta_vs_shift_s3": "OverflowError",
        **dict.fromkeys(
            "wp_lambda_independence_2 wp_lambda_independence_3 thm26_delta1_sigma_4factor"
            " eq6_delta_ratio_sigma thm29_delta2_sigma_quotient eq17_sigma_ratio_from_delta2"
            " frobenius_stickelberger eq19_inv_delta eq19_wp_over_wp_prime eq19_inv_wp_prime".split(),
            "ZeroDivisionError",
        ),
        **dict.fromkeys(_JACOBI.split(), "DegenerateLattice"),
    },
    # At |q| = 0.88 the q-series sums about 145 terms, within its budget.
    "0.45+0.04i": {},
}

# The sigma products whose factors are in range and whose product is not
# (ROADMAP item 10); the other untyped errors divide by a cancelled
# difference (item 8).
_SIGMA_PRODUCTS = {
    "eq2_sigma_aux_theta_vs_shift_s3", "wp_lambda_independence_2", "wp_lambda_independence_3",
    "thm26_delta1_sigma_4factor", "eq6_delta_ratio_sigma", "thm29_delta2_sigma_quotient",
    "eq17_sigma_ratio_from_delta2", "frobenius_stickelberger",
}


def _item(name: str, kind: str) -> str:
    """The ROADMAP item that should remove a listed failure."""
    if kind == "DegenerateLattice":
        return "item 5 (the degeneracy threshold)"
    if kind != "residual" and name in _SIGMA_PRODUCTS:
        return "item 10 (sigma in scaled form)"
    return "item 8 (cancellation in the identity's form)"


class ListedFailure(Exception):
    """The row failed as FAILING lists it."""


@lru_cache(maxsize=None)
def _reports(label: str) -> dict:
    lat = build_lattice(0.5, 0.5 * TAUS[label])
    return {r.name: r for r in run_suite(lat, default_suite(), n=20, seed=12345)}


def _rows():
    for label in TAUS:
        for spec in default_suite():
            kind = FAILING[label].get(spec.name)
            marks = ()
            if kind is not None:
                reason = f"ROADMAP {_item(spec.name, kind)}: {kind}"
                marks = pytest.mark.xfail(strict=True, raises=ListedFailure, reason=reason)
            yield pytest.param(label, spec.name, kind, id=f"{label}-{spec.name}", marks=marks)


@pytest.mark.parametrize("label, name, listed", list(_rows()))
def test_scoreboard_row(label, name, listed):
    rep = _reports(label)[name]
    if rep.passed:
        return
    kind = rep.error or "residual"
    assert kind == listed, f"{name} at tau = {label} fails by {kind}, listed as {listed}"
    raise ListedFailure(f"{name} at tau = {label}: {kind}")


def test_failing_rows_are_suite_rows():
    names = {spec.name for spec in default_suite()}
    for label, rows in FAILING.items():
        assert set(rows) <= names, label
