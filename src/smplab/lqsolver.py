"""Constrained linear-quadratic control solved as a coupled forward-backward system.

Fixed common noise drives a damped Picard loop: simulate the state under the
current control, regress the negated terminal state on the current state per
step to get the adjoint, project onto the nonnegative controls, mix with the
previous iterate, repeat until the control stops moving in L2(dt x P).  The
unconstrained textbook feedback u*(t) = -X(t) / (T + 1 - t) serves as the
benchmark when the constraint stays inactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bsde import AdjointTriple, fit_qr_step, l2_dtP_norm, relative_l2_dtP, unidentifiable_atoms
from .malliavin import PolynomialBasis, StateProjector
from .model import FeedbackLaw, LevyMeasure, OpenLoopLaw, TimeGrid, build_lq_coefficients
from .simulate import euler_forward, sample_noise, write_csv
from .smp import performance_values


@dataclass(frozen=True)
class LqParams:
    x0: float
    sigma: float
    levy: LevyMeasure
    grid: TimeGrid
    n_paths: int
    seed: int
    gamma_map: Callable[[float], float] = lambda zeta: zeta
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
    feedback: list  # per-step ConditionalFit of the adjoint p
    p_hat: AdjointTriple
    residual_history: list
    fbsde_residual: float
    converged: bool

    def feedback_law(self, grid: TimeGrid) -> FeedbackLaw:
        """Out-of-sample control u(t, x) = max(p_fit_i(x), 0)."""
        fits = self.feedback

        def fn(t, x):
            i = grid.step_of(t)
            return np.maximum(fits[i](np.atleast_1d(x)), 0.0)

        return FeedbackLaw(fn, bounds=(0.0, math.inf))


def solve_constrained(params: LqParams) -> LqSolution:
    """Damped Picard iteration on the coupled state-adjoint system.

    Starts from the zero control; each sweep regresses -X(T) on X(t_i) per
    step for the adjoint and replaces the control by a damped mix with its
    nonnegative part.  A run that exhausts max_iters returns the best
    iterate flagged unconverged rather than raising.
    """
    coeffs = build_lq_coefficients(params.sigma, params.levy, params.gamma_map)
    noise = sample_noise(params.grid, params.levy, params.n_paths, params.seed)
    grid = params.grid
    n_steps = grid.n_steps
    dt = grid.dt
    basis = PolynomialBasis(degree=params.degree)

    u = np.zeros((params.n_paths, n_steps))
    residual_history: list[float] = []
    converged = False
    for _ in range(params.max_iters):
        X = euler_forward(coeffs, OpenLoopLaw(u, bounds=coeffs.control_set), noise, params.x0).X
        terminal = -X[:, -1]
        p = np.column_stack([StateProjector(X[:, i], basis).fit(terminal).fitted for i in range(n_steps)])
        target = np.maximum(p, 0.0)
        u_next = (1.0 - params.damping) * u + params.damping * target
        residual = l2_dtP_norm(u_next - u, dt)
        residual_history.append(residual)
        u = u_next
        if residual < params.tol:
            converged = True
            break

    # Final diagnostics: one more backward pass under the returned control.
    # p(t_i) = -E[X(T) | X(t_i)] with p(T) exact; (q, r) share p's projector.
    X = euler_forward(coeffs, OpenLoopLaw(u, bounds=coeffs.control_set), noise, params.x0).X
    terminal = -X[:, -1]
    p = np.empty_like(X)
    p[:, n_steps] = terminal
    q = np.empty((params.n_paths, n_steps))
    r = np.zeros((params.n_paths, n_steps, params.levy.n_atoms))
    dead = unidentifiable_atoms(noise)
    fits = [None] * n_steps
    for i in range(n_steps - 1, -1, -1):
        projector = StateProjector(X[:, i], basis)
        fits[i] = projector.fit(terminal)
        p[:, i] = fits[i].fitted
        fit_qr_step(projector, p[:, i + 1] - p[:, i], noise, i, q, r, dead)
    p_hat = AdjointTriple(grid=grid, p=p, q=q, r=r, unidentifiable_atoms=dead)
    fbsde_residual = l2_dtP_norm(u - np.maximum(p[:, :n_steps], 0.0), dt)
    return LqSolution(
        u_values=u,
        feedback=fits,
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
    return FeedbackLaw(lambda t, x: -np.asarray(x, dtype=float) / (grid.horizon + 1.0 - t))


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

    ``binding_fraction`` is the share of (path, step) cells where the
    nonnegativity constraint binds, i.e. the adjoint is negative.
    """
    coeffs = build_lq_coefficients(params.sigma, params.levy, params.gamma_map)
    noise = sample_noise(params.grid, params.levy, params.n_paths, params.seed)
    grid = params.grid
    dt = grid.dt

    star_forward = euler_forward(coeffs, unconstrained_feedback_law(grid), noise, params.x0)
    u_star = star_forward.u
    distance = relative_l2_dtP(sol.u_values, u_star, dt)

    n = params.n_paths
    j_con = performance_values(OpenLoopLaw(sol.u_values, bounds=coeffs.control_set), coeffs, noise, params.x0)
    j_unc = performance_values(unconstrained_feedback_law(grid), coeffs, noise, params.x0, forward=star_forward)
    binding = float(np.mean(sol.p_hat.p[:, : grid.n_steps] < 0.0))
    return ComparisonReport(
        control_distance=distance,
        j_constrained=float(j_con.mean()),
        j_constrained_se=float(j_con.std(ddof=1) / math.sqrt(n)),
        j_unconstrained=float(j_unc.mean()),
        j_unconstrained_se=float(j_unc.std(ddof=1) / math.sqrt(n)),
        binding_fraction=binding,
    )


def dump_feedback_csv(sol: LqSolution, grid: TimeGrid, path) -> None:
    """Per-step polynomial coefficients of the fitted adjoint (standardized basis)."""
    times = grid.times()
    degree = len(sol.feedback[0].coeffs) - 1
    rows = ([i, times[i], fit.feature_mean[0], fit.feature_scale[0], *fit.coeffs] for i, fit in enumerate(sol.feedback))
    write_csv(path, ["step", "t", "feature_mean", "feature_scale"] + [f"c{k}" for k in range(degree + 1)], rows)


def dump_residuals_csv(sol: LqSolution, path) -> None:
    write_csv(path, ["iteration", "residual"], enumerate(sol.residual_history))
