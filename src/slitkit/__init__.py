"""Harmonic expansions and solvers on slit domains."""

from .errors import (
    ConfigInvalid,
    DegenerateWeight,
    IllConditioned,
    InsufficientResolution,
    MaskDegenerate,
    NoBracket,
    NonConvergence,
    OutOfChart,
    SingularMoments,
    SingularSystem,
    SlitkitError,
    TruncationWarning,
)
from .geometry import (
    GammaJet,
    SlitGeometry,
    flat_geometry,
    flat_jet,
    frame_fields,
    gamma_jet,
    parabola_geometry,
)
from .xrpoly import (
    LaplacianResult,
    XRPolynomial,
    flat_principal,
    laplacian_monomial,
    laplacian_of_product,
    solve_approximating,
)
from .errors import MultipleRoots
from .geometry import foot_jet
from .solver import (
    GridSolution,
    HalfAngleSeries,
    check_barrier,
    compute_energy,
    solve_disc_2d,
    solve_fd,
    solve_series_2d,
)
from .expansion import (
    RateReport,
    derivative_rate_checks,
    evaluate_poly,
    fit_tangent,
    formal_gradient,
    formal_hessian,
    rate_report,
)
from .whitney import Mollifier, YPolynomial, build_mollifier, verify_jet_match, whitney_extend
from .neumann import (
    NeumannPair,
    QuotientField,
    constant_T,
    fit_quotient_expansion,
    neumann_rate,
    quotient,
    solve_pair_systems,
    t_nu_on_edge,
    weighted_laplacian_bracket,
)
from .freeboundary import FreeBoundaryResult, TipProblem, solve_free_boundary, tip_coefficient
from .config import ExperimentConfig

__version__ = "0.1.0"
