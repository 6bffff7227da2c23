"""Monotone stabilized P1 finite elements for stationary second-order mean
field games on 2D polygonal domains.

The package solves the coupled HJB / Kolmogorov-Fokker-Planck system with
homogeneous Dirichlet conditions, using the edge-tensor stabilization on
Xu-Zikatanov meshes or vanishing artificial diffusion on strictly acute
meshes, and ships the experiment drivers that check the discrete maximum
principle and the optimal convergence rates at desk scale.
"""

from .analysis import (
    EOCTable,
    ErrorRecord,
    check_l2_monotonicity_inequality,
    error_h1,
    error_l2,
    error_vs_reference,
    inject_to_descendant,
    mesh_hierarchy,
    quasi_optimality_ratio,
    run_convergence_study,
    verify_dmp_at_solution,
)
from .errors import (
    ConfigurationError,
    GeometryError,
    InvariantViolation,
    MeshFormatError,
    MFGError,
    NonConvergenceError,
    NumericError,
    SolverError,
)
from .fespace import P1Function, P1Space, QuadratureRule, interpolate, quadrature
from .hamiltonian import (
    HamiltonianSpec,
    check_gradient,
    check_semismooth_bound,
    finite_control,
    huber_ball,
)
from .mesh import (
    Mesh2D,
    MeshQualityReport,
    check_acute,
    check_xz,
    generate_acute_rhombus,
    generate_structured_square,
    quality_report,
    read_mesh,
    refine_red,
    write_mesh,
)
from .problem import (
    CouplingF,
    ExactSolution,
    MFGProblem,
    SourceG,
    make_g_one_problem,
    make_manufactured,
    make_rough_density_problem,
    make_zero_problem,
    sine_product_field,
)
from .solver import (
    DiscreteSolution,
    SolverConfig,
    riesz_dual_norm,
    solve_kfp,
    solve_m_k_plus,
    solve_mfg,
)
from .stabilization import (
    StabilizationTensor,
    build_acute_tensor,
    build_xz_tensor,
    certify_dmp,
    verify_h1,
    verify_h2_dmp,
)

__version__ = "0.1.0"
