"""Solver for the spectral fractional Laplacian on tensor-product boxes via
the truncated-cylinder extension, with graded-mesh h-FEM or geometric-mesh
hp-FEM in the extended direction."""

from .error_analysis import (
    Discretization,
    StudyRow,
    direct_energy_error_small,
    discretize,
    dof_gap,
    energy_error,
    observed_orders,
    run_convergence_study,
    run_level,
    trace_hs_error,
)
from .fem1d import (
    WeightedMatrices,
    assemble_weighted_matrices,
    eval_in_VM,
    gauss_lobatto_points,
    interpolate_iyp,
)
from .femomega import (
    OmegaGrid,
    OmegaMatrices,
    assemble_load,
    assemble_omega_matrices,
)
from .meshing import (
    DiscretizationParams,
    YMesh,
    build_ymesh,
    geometric_mesh,
    graded_mesh,
    hp_mesh,
    linear_degree_vector,
    select_params_h,
    select_params_hp,
)
from .solver import (
    KroneckerSystem,
    SolutionTensor,
    SolverError,
    cylinder_rhs,
    kron_matvec,
    solve,
)
from .specialfunc import (
    PsiProfile,
    bessel_k,
    bessel_k_integral,
    derivative_coeffs,
    psi,
    psi_nth_derivative,
    psi_prime,
)
from .spectral import (
    BoxDomain,
    FractionalProblem,
    ModalFunction,
    benchmark_problem,
    exact_extended,
    hs_norm,
    modal_function,
    solve_fractional,
    tail_energy,
)

__version__ = "0.1.0"
