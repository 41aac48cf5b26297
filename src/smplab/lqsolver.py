"""Constrained linear-quadratic control solved as a coupled forward-backward system.

Fixed common noise drives a damped Picard loop: simulate the state under the
current control, sweep back for its adjoint p (``smp.adjoint_for``), project p
onto the control set, mix with the previous iterate, repeat until the control
stops moving in L2(dt x P).  The unconstrained textbook feedback
u*(t) = -X(t) / (T + 1 - t) of the ``lq`` family serves as the benchmark when
the constraint stays inactive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import AdjointTriple, l2_dtP_norm, relative_l2_dtP
from .malliavin import mean_se
from .model import ControlledCoefficients, FeedbackLaw, LevyMeasure, OpenLoopLaw, TimeGrid
from .simulate import NoiseBundle, euler_forward
from .smp import adjoint_for, performance_values


def check_picard_settings(max_iters: int, damping: float, tol: float) -> None:
    """Settings of the damped Picard loop: max_iters >= 1, damping in (0, 1], tol > 0."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")


# Probe states and controls of ``check_lq_structure``; the controls are projected onto the control set.
_PROBE_X = np.array([-2.0, -0.5, 0.0, 0.7, 1.5])
_PROBE_U = np.array([-1.0, 0.0, 0.4, 1.3])


def check_lq_structure(coeffs: ControlledCoefficients, grid: TimeGrid, levy: LevyMeasure) -> None:
    """The Picard update u = clamp(p), p the adjoint of the backward sweep (``smp.adjoint_for``),
    maximizes the Hamiltonian only when b_u = 1, sigma_u = gamma_u = 0 and f_u = -u.

    f_x = b_x = sigma_x = gamma_x = 0 is required too, until a reference solution exists for a
    model whose adjoint depends on the state partials.  Checked on the model's partial maps at
    every (x, u) probe pair, every left node of ``grid`` and every atom of ``levy``; a model of
    another form raises ``ValueError``.
    """
    x, u = (a.reshape(-1, 1) for a in np.meshgrid(_PROBE_X, coeffs.clamp(_PROBE_U)))
    t = grid.times()[None, :-1]
    wanted = {"b_u": 1.0, "sigma_u": 0.0, "f_u": -u, "f_x": 0.0, "b_x": 0.0, "sigma_x": 0.0}
    got = [(name, getattr(coeffs, name)(t, x, u), value) for name, value in wanted.items()]
    for zeta in levy.zetas:
        got += [(name, getattr(coeffs, name)(t, x, u, zeta), 0.0) for name in ("gamma_u", "gamma_x")]
    for name, values, value in got:
        if not np.allclose(values, value, rtol=0.0, atol=1e-12):
            raise ValueError(f"{name} is not of the LQ form; the Picard update u = clamp(p) does not solve the model")


@dataclass(frozen=True)
class LqParams:
    """Solver inputs: a model of the LQ form (``check_lq_structure``; ``build_lq_coefficients``
    has it), whose Hamiltonian the Picard update u = clamp(p) maximizes pointwise, and the
    run's common noise, shared by every sweep."""

    x0: float
    coeffs: ControlledCoefficients
    noise: NoiseBundle
    max_iters: int = 80
    damping: float = 0.5
    tol: float = 2e-4

    def __post_init__(self):
        check_picard_settings(self.max_iters, self.damping, self.tol)
        check_lq_structure(self.coeffs, self.noise.grid, self.noise.levy)


@dataclass
class LqSolution:
    """Converged control, its adjoint, and iteration diagnostics."""

    u_values: np.ndarray  # (n_paths, N) on the training noise, step-major
    p_hat: AdjointTriple  # its p_fits are the per-step fits of the feedback law
    residual_history: list
    fbsde_residual: float
    converged: bool

    def feedback_law(self) -> FeedbackLaw:
        """Out-of-sample control u(t_i, x) = p_fit_i(x); the forward step clamps it to the control set."""
        fits = self.p_hat.p_fits
        return FeedbackLaw(lambda step, t, x: fits[step](np.atleast_1d(x)))


def solve_constrained(params: LqParams) -> LqSolution:
    """Damped Picard iteration on the coupled state-adjoint system.

    Starts from the adjoint of the zero control; each iterate mixes the control with
    clamp(p) and sweeps once under the mix (``adjoint_for``), for the next iterate or,
    after the last, the returned ``p_hat``: k iterates make k + 1 sweeps.  A run that
    exhausts max_iters returns the last iterate flagged unconverged rather than raising.
    """
    noise, coeffs = params.noise, params.coeffs
    n_steps = noise.grid.n_steps
    dt = noise.grid.dt

    def sweep(u: np.ndarray) -> AdjointTriple:
        return adjoint_for(coeffs, euler_forward(coeffs, OpenLoopLaw(u), noise, params.x0))

    u = np.zeros((noise.n_paths, n_steps), order="F")
    p_hat = sweep(u)
    residual_history: list[float] = []
    converged = False
    for _ in range(params.max_iters):
        u_next = (1.0 - params.damping) * u + params.damping * coeffs.clamp(p_hat.p[:, :n_steps])
        del p_hat  # the previous triple dies before the next sweep, or two are alive at its peak
        residual_history.append(l2_dtP_norm(u_next - u, dt))
        u = u_next
        p_hat = sweep(u)
        if residual_history[-1] < params.tol:
            converged = True
            break

    fbsde_residual = l2_dtP_norm(u - coeffs.clamp(p_hat.p[:, :n_steps]), dt)
    return LqSolution(
        u_values=u,
        p_hat=p_hat,
        residual_history=residual_history,
        fbsde_residual=fbsde_residual,
        converged=converged,
    )


def unconstrained_feedback_law(grid: TimeGrid) -> FeedbackLaw:
    """The textbook feedback u*(t, x) = -x / (T + 1 - t), whose denominator stays >= 1 on [0, T].

    Simulated through ``euler_forward``, its values are clamped to the
    model's control set wherever the constraint would bind.
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

    u* runs through ``euler_forward``, so it is clamped to the model's
    control set wherever the constraint would bind.  ``binding_fraction`` is
    the share of (path, step) cells where the constraint binds on the
    returned adjoint, i.e. clamp(p) differs from p.
    """
    noise, coeffs = params.noise, params.coeffs
    grid = noise.grid

    star_forward = euler_forward(coeffs, unconstrained_feedback_law(grid), noise, params.x0)
    distance = relative_l2_dtP(sol.u_values, star_forward.u, grid.dt)

    con_forward = euler_forward(coeffs, OpenLoopLaw(sol.u_values), noise, params.x0)
    j_con, j_con_se = mean_se(performance_values(coeffs, con_forward))
    j_unc, j_unc_se = mean_se(performance_values(coeffs, star_forward))
    p = sol.p_hat.p[:, : grid.n_steps]
    binding = float(np.mean(coeffs.clamp(p) != p))
    return ComparisonReport(
        control_distance=distance,
        j_constrained=j_con,
        j_constrained_se=j_con_se,
        j_unconstrained=j_unc,
        j_unconstrained_se=j_unc_se,
        binding_fraction=binding,
    )
