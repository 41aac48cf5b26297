"""Numerical laboratory for first-order optimality of controlled jump diffusions."""

__version__ = "0.1.0"

from .model import (
    DELTA_SING,
    ControlLaw,
    ControlledCoefficients,
    FeedbackLaw,
    LevyMeasure,
    OpenLoopLaw,
    SpikedLaw,
    TimeGrid,
    build_lq_coefficients,
    validate_coefficients,
)
from .simulate import (
    LinearCoefficients,
    NoiseBundle,
    PathBundle,
    euler_forward,
    gamma_process,
    linear_closed_form,
    sample_noise,
)
from .malliavin import (
    Brownian,
    Compose,
    Constant,
    Jump,
    PolynomialBasis,
    bm_integral,
    check_duality,
    clark_ocone_reconstruct,
    constant,
    evaluate,
    hm_derivative,
    jump_integral,
    square_map,
)
from .bsde import AdjointTriple, extract_qr, solve_adjoint
from .smp import (
    SmpVerdict,
    adjoint_for,
    check_necessary_condition,
    hamiltonian,
    hamiltonian_du,
    spike_perturb,
    variational_Z,
)
from .lqsolver import (
    LqParams,
    LqSolution,
    compare_to_unconstrained,
    solve_constrained,
)
