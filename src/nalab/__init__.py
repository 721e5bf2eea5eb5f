"""Desk-scale numerical laboratory for weighted maximal-operator inequalities.

The model lives on two synthetic geometries: a radial annulus grid with
purely exponential volume growth, and finite homogeneous trees.  On top
of them sit averaging and maximal operators, weight families, condition
checkers returning auditable reports, and canned experiments.
"""

from .checkers import (
    CheckReport,
    SetFamily,
    check_ap_loc,
    check_classical_ap,
    check_easy_check,
    check_large_scale,
    check_msw,
    check_necessary,
    fs_ratio,
    strong_type_ratio,
    vector_valued_ratio,
    weak_type_ratio,
)
from .errors import (
    ConfigError,
    DomainError,
    GridRangeError,
    NalabError,
    PoleError,
    PrecisionError,
    UnsupportedError,
)
from .experiments import (
    CANONICAL_J_MAX,
    CANONICAL_N_MAX,
    CANONICAL_SEED,
    ExperimentConfig,
    REPRODUCE_IDS,
    run_reproduce,
    run_sweep,
)
from .fitting import FitResult, fit_linear, fit_log_slope
from .geometry import (
    DEFAULT_SPACE,
    AnnularGrid,
    SpaceParams,
    annular_intersection,
    ball_volume,
    density,
    product_kernel,
    valid_upper,
)
from .radialops import (
    MaximalResult,
    RadialFunction,
    avg,
    maximal_dis,
    maximal_s,
)
from .specfun import (
    FunctionTrace,
    JacobiParams,
    jacobi_phi,
    jacobi_phi_second_trace,
    jacobi_phi_trace,
    ode_residual,
    spherical_profile,
)
from .treelab import (
    KolmogorovReport,
    TreeBall,
    TreeMaximal,
    TreeSpace,
    VertexFunction,
    VertexWeight,
    tree_ball,
    tree_kolmogorov,
    tree_maximal,
    tree_maximal_naive,
    tree_product_measure,
    weak11_constant,
)
from .weights import Weight, WeightSpec, materialize, weight_mass

__version__ = "0.1.0"
