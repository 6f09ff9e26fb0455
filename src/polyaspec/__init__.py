"""Model Laplace spectra, eigenvalue counting, and Polya-type verification.

The package builds exact spectra of model domains (intervals, boxes, the
unit equilateral triangle, the round 2-sphere) and their products, counts
eigenvalues against Weyl-type predictions, evaluates the classical Riesz
mean inequalities, computes explicit thin-product thresholds, and verifies
the Polya inequalities per eigenvalue, with an integer-only fast path for
exact spectra.
"""

from .constants import (
    HInfimum,
    Lemma42Bounds,
    ThresholdCase,
    ThresholdRequest,
    ThresholdResult,
    a_d_const,
    b_d_const,
    c_d,
    check_lemma42,
    fd_integral,
    fd_profile,
    h1,
    h2,
    l_gamma_d,
    omega_d,
    threshold_a0,
)
from .counting import (
    CountingFunction,
    SeeleyEstimate,
    SumCountingFunction,
    estimate_seeley_constant,
    two_term_bound,
    weyl_leading,
)
from .errors import (
    ConfigError,
    CoverageError,
    DomainError,
    ModeError,
    PolyaspecError,
    ValidationError,
)
from .pivals import PiRational, parse_length
from .polya import (
    VerificationReport,
    per_eigenvalue_margins,
    polya_weyl_term,
    verify_counting_bound,
    verify_dirichlet,
    verify_exact_power,
    verify_neumann,
)
from .riesz import (
    TwoTermScan,
    WindowScan,
    berezin_margin,
    kroger_check,
    laptev_neumann_margin,
    li_yau_checks,
    riesz_mean,
    riesz_mean_many,
    two_term_riesz_scan,
    window_infimum_dirichlet,
    window_infimum_neumann,
    window_supremum_neumann,
)
from .spectra import (
    BoundaryCondition,
    DomainMeta,
    EigenvalueStream,
    box_meta,
    box_spectrum,
    interval_meta,
    interval_spectrum,
    product_meta,
    product_spectrum,
    sphere2_meta,
    sphere2_spectrum,
    stream_from_csv,
    stream_from_json_dict,
    stream_to_csv,
    stream_to_json_dict,
    tabulated_spectrum,
    triangle_meta,
    triangle_neumann_spectrum,
)

__version__ = "0.1.0"
