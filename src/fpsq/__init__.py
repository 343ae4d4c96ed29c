"""Detection-hardness numerics for planted-vs-null testing problems.

The package evaluates, for pluggable "P versus Q" detection models, the
overlap-integral hardness functionals used to map computational phase
diagrams: the Franz-Parisi (FP) value, its event-optimized generalization
(GFP), the rho_G-FP variant, statistical-query (SQ) and unconditional-SQ
moments, samplewise low-degree norms, and chi-squared divergences.  Every
closed-form likelihood-ratio kernel ships with an independent oracle
(exact enumeration, quadrature, or seeded Monte Carlo).
"""

from fpsq.numerics import (
    QuadratureRule,
    HermiteSeries,
    gauss_hermite_rule,
    interval_indicator_coeffs,
    log_sum_exp,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)
from fpsq.laws import OverlapLaw, ThresholdResult, make_law, survival, threshold_sup, expect, sample
from fpsq.kernels import (
    GroupSpec,
    Kernel,
    ModelSpec,
    counterexample_kernel,
    dense_clique_kernel,
    dirac_kernel,
    gam_kernel,
    group_avg_check,
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
from fpsq.oracles import (
    OracleEstimate,
    bvn_rectangle,
    enum_kernel_counterexample,
    mc_criterion,
    mc_kernel_mslr,
    quad_kernel_ngca,
)

__version__ = "0.1.0"

__all__ = [
    "QuadratureRule",
    "HermiteSeries",
    "gauss_hermite_rule",
    "interval_indicator_coeffs",
    "log_sum_exp",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "OverlapLaw",
    "ThresholdResult",
    "make_law",
    "survival",
    "threshold_sup",
    "expect",
    "sample",
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
    "group_avg_check",
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
    "mc_kernel_mslr",
    "enum_kernel_counterexample",
    "quad_kernel_ngca",
    "bvn_rectangle",
    "mc_criterion",
    "__version__",
]
