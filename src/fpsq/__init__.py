"""Detection-hardness numerics for planted-vs-null testing problems.

The package evaluates, for pluggable "P versus Q" detection models, the
overlap-integral hardness functionals used to map computational phase
diagrams: the Franz-Parisi (FP) value, its event-optimized generalization
(GFP), the rho_G-FP variant, statistical-query (SQ) and unconditional-SQ
moments, samplewise low-degree norms, and chi-squared divergences.
fpsq.oracles checks the mslr, counterexample, ngca and slab kernels
independently (a Gaussian integral, enumeration or quadrature); the gam,
dense_clique and dirac tables restate their closed forms; si has none.
"""

from fpsq.numerics import (
    HermiteSeries,
    interval_indicator_coeffs,
    log_sum_exp,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)
from fpsq.laws import OverlapLaw, SphereLaw, ThresholdResult, make_law, survival, threshold_sup, expect
from fpsq.kernels import (
    GroupSpec,
    Kernel,
    ModelSpec,
    counterexample_kernel,
    dense_clique_kernel,
    dirac_kernel,
    gam_kernel,
    mslr_kernel,
    ngca_kernel,
    rho_g,
    si_kernel,
    si_lambda_coeffs,
    slab_kernel,
)
from fpsq.criteria import (
    CriterionReport,
    assumption_holds,
    check_equivalence_bounds,
    chi_squared,
    fp_value,
    gfp_value,
    ld_samplewise,
    rho_fp_value,
    sq_value,
    usq_hard,
    usq_moment,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The oracles' exports, from fpsq.oracles on first use (PEP 562)."""
    if name in __all__:
        from fpsq import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module 'fpsq' has no attribute {name!r}")


__all__ = [
    "HermiteSeries",
    "interval_indicator_coeffs",
    "log_sum_exp",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "OverlapLaw",
    "SphereLaw",
    "ThresholdResult",
    "make_law",
    "survival",
    "threshold_sup",
    "expect",
    "GroupSpec",
    "Kernel",
    "ModelSpec",
    "gam_kernel",
    "mslr_kernel",
    "ngca_kernel",
    "si_lambda_coeffs",
    "si_kernel",
    "slab_kernel",
    "counterexample_kernel",
    "dense_clique_kernel",
    "dirac_kernel",
    "rho_g",
    "CriterionReport",
    "fp_value",
    "rho_fp_value",
    "gfp_value",
    "sq_value",
    "usq_moment",
    "usq_hard",
    "chi_squared",
    "ld_samplewise",
    "assumption_holds",
    "check_equivalence_bounds",
    "OracleEstimate",
    "gauss_kernel_mslr",
    "enum_kernel_counterexample",
    "quad_kernel_ngca",
    "bvn_rectangle",
    "__version__",
]
