"""Constrained linear-quadratic control solved as a coupled forward-backward system.

Fixed common noise drives a damped Picard loop: simulate the state under the
current control, regress the negated terminal state on the current state per
step to get the adjoint, project onto the nonnegative controls, mix with the
previous iterate, repeat until the control stops moving in L2(dt x P).  The
unconstrained textbook feedback u*(t) = -X(t) / (T + 1 - t) serves as the
benchmark when the constraint stays inactive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import AdjointTriple, l2_dtP_norm, relative_l2_dtP
from .malliavin import PolynomialBasis, StateProjector, mean_se
from .model import ControlledCoefficients, FeedbackLaw, OpenLoopLaw, TimeGrid
from .simulate import NoiseBundle, euler_forward, write_csv
from .smp import adjoint_for, performance_values


@dataclass(frozen=True)
class LqParams:
    """Solver inputs: the LQ model ``coeffs`` (``build_lq_coefficients``), whose
    Hamiltonian the Picard update u = clamp(p) maximizes pointwise, and the
    run's common noise, shared by every sweep."""

    x0: float
    coeffs: ControlledCoefficients
    noise: NoiseBundle
    degree: int = 3
    max_iters: int = 80
    damping: float = 0.5
    tol: float = 2e-4

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class LqSolution:
    """Converged control, its adjoint, and iteration diagnostics."""

    u_values: np.ndarray  # (n_paths, N) on the training noise
    p_hat: AdjointTriple  # its p_fits are the per-step fits of the feedback law
    residual_history: list
    fbsde_residual: float
    converged: bool

    def feedback_law(self) -> FeedbackLaw:
        """Out-of-sample control u(t_i, x) = p_fit_i(x); the forward step clamps it to [0, inf)."""
        fits = self.p_hat.p_fits
        return FeedbackLaw(lambda step, t, x: fits[step](np.atleast_1d(x)))


def solve_constrained(params: LqParams) -> LqSolution:
    """Damped Picard iteration on the coupled state-adjoint system.

    Starts from the zero control; each sweep regresses g_x(X(T)) = -X(T) on
    X(t_i) per step for the adjoint and replaces the control by a damped mix with its
    projection onto the control set.  A run that exhausts max_iters returns
    the best iterate flagged unconverged rather than raising.
    """
    noise, coeffs = params.noise, params.coeffs
    n_steps = noise.grid.n_steps
    dt = noise.grid.dt
    basis = PolynomialBasis(degree=params.degree)

    u = np.zeros((noise.n_paths, n_steps))
    residual_history: list[float] = []
    converged = False
    for _ in range(params.max_iters):
        X = euler_forward(coeffs, OpenLoopLaw(u), noise, params.x0).X
        terminal = coeffs.g_x(X[:, -1])
        p = np.column_stack([StateProjector(X[:, i], basis).fit(terminal).fitted for i in range(n_steps)])
        u_next = (1.0 - params.damping) * u + params.damping * coeffs.clamp(p)
        residual = l2_dtP_norm(u_next - u, dt)
        residual_history.append(residual)
        u = u_next
        if residual < params.tol:
            converged = True
            break

    # Final diagnostics: the explicit adjoint under the returned control,
    # p(t_i) = E[g_x(X(T)) | X(t_i)] = -E[X(T) | X(t_i)] since Gamma = 1 and f_x = 0.
    p_hat = adjoint_for(coeffs, euler_forward(coeffs, OpenLoopLaw(u), noise, params.x0), basis)
    fbsde_residual = l2_dtP_norm(u - coeffs.clamp(p_hat.p[:, :n_steps]), dt)
    return LqSolution(
        u_values=u,
        p_hat=p_hat,
        residual_history=residual_history,
        fbsde_residual=fbsde_residual,
        converged=converged,
    )


def closed_form_unconstrained(X: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Textbook feedback u*(t_i) = -X(t_i) / (T + 1 - t_i) on the step nodes.

    The denominator stays >= 1 on [0, T], so the law is singularity-free.
    """
    X = np.asarray(X, dtype=float)
    times = grid.times()[: grid.n_steps]
    return -X[..., : grid.n_steps] / (grid.horizon + 1.0 - times)


def unconstrained_feedback_law(grid: TimeGrid) -> FeedbackLaw:
    """The textbook feedback u*(t, x) = -x / (T + 1 - t).

    Simulated through ``euler_forward`` under the LQ coefficients, its
    values are clipped to [0, inf) wherever the constraint would bind.
    """
    return FeedbackLaw(lambda step, t, x: -np.asarray(x, dtype=float) / (grid.horizon + 1.0 - t))


@dataclass
class ComparisonReport:
    """Constrained solution against the unconstrained benchmark on common noise."""

    control_distance: float
    j_constrained: float
    j_constrained_se: float
    j_unconstrained: float
    j_unconstrained_se: float
    binding_fraction: float


def compare_to_unconstrained(sol: LqSolution, params: LqParams) -> ComparisonReport:
    """Simulate u* on the solver's noise and compare controls and values.

    u* runs through ``euler_forward``, so it is clipped to [0, inf) wherever
    the constraint would bind.  ``binding_fraction`` is the share of
    (path, step) cells where the nonnegativity constraint binds, i.e. the
    adjoint is negative.
    """
    noise, coeffs = params.noise, params.coeffs
    grid = noise.grid

    star_forward = euler_forward(coeffs, unconstrained_feedback_law(grid), noise, params.x0)
    distance = relative_l2_dtP(sol.u_values, star_forward.u, grid.dt)

    j_con, j_con_se = mean_se(performance_values(OpenLoopLaw(sol.u_values), coeffs, noise, params.x0))
    j_unc, j_unc_se = mean_se(
        performance_values(unconstrained_feedback_law(grid), coeffs, noise, params.x0, forward=star_forward)
    )
    binding = float(np.mean(sol.p_hat.p[:, : grid.n_steps] < 0.0))
    return ComparisonReport(
        control_distance=distance,
        j_constrained=j_con,
        j_constrained_se=j_con_se,
        j_unconstrained=j_unc,
        j_unconstrained_se=j_unc_se,
        binding_fraction=binding,
    )


def dump_feedback_csv(sol: LqSolution, grid: TimeGrid, path) -> None:
    """Per-step polynomial coefficients of the fitted adjoint (standardized basis)."""
    times = grid.times()
    fits = sol.p_hat.p_fits
    degree = len(fits[0].coeffs) - 1
    rows = ([i, times[i], fit.feature_mean[0], fit.feature_scale[0], *fit.coeffs] for i, fit in enumerate(fits))
    write_csv(path, ["step", "t", "feature_mean", "feature_scale"] + [f"c{k}" for k in range(degree + 1)], rows)


def dump_residuals_csv(sol: LqSolution, path) -> None:
    write_csv(path, ["iteration", "residual"], enumerate(sol.residual_history))
