"""Hamiltonian machinery, spike perturbations, and the necessary-condition verdict.

For a candidate control u-hat the verdict estimates, per cell (tau, v),
E[dH/du(tau, X(tau), u(tau)) (v - u(tau))] with its standard error and the
common-noise difference quotients (J(u_spiked) - J(u)) / |W|, where |W| is
the length of the steps that the spike window [tau, tau + eps) selects on
the grid (``TimeGrid.window_steps``); the candidate passes when every
statistic is below 3 standard errors (one-sided) and the quotient-statistic
gaps shrink as eps does, within Monte Carlo bands.  A spiked path equals the
base path before its window, so each spiked run starts at the window from
the base state (``spiked_values``).

The spiked runs are independent given the candidate's path bundle, so the
verdict runs its (tau, v, eps) cells, in order, in forked chunks by the
fork rule of ``simulate`` (``simulate.run_chunks``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import AdjointTriple, hamiltonian_sum, solve_adjoint
from .malliavin import mean_se
from .model import ControlLaw, ControlledCoefficients, LevyMeasure, SpikedLaw, TimeGrid
from .simulate import NoiseBundle, PathBundle, _euler_step, euler_forward, run_chunks, shared_zeros


def hamiltonian_du(t, x, u, p, q, r, coeffs: ControlledCoefficients, levy: LevyMeasure):
    """Control derivative f_u + b_u p + sigma_u q + sum_k gamma_u r_k lam_k."""
    gammas = [coeffs.gamma_u(t, x, u, zeta) for zeta in levy.zetas]
    return hamiltonian_sum(coeffs.f_u(t, x, u), coeffs.b_u(t, x, u), coeffs.sigma_u(t, x, u), gammas, p, q, r, levy)


@dataclass(frozen=True, eq=False)
class CoefficientPartials:
    """State partials along a path bundle, all that the adjoint generator dH/dx
    reads; fields may be read-only broadcast views."""

    f_x: np.ndarray  # (n_paths, N)
    b_x: np.ndarray
    sigma_x: np.ndarray
    gamma_x: np.ndarray  # (n_paths, N, K)


def _along(coeffs: ControlledCoefficients, forward: PathBundle, name: str) -> np.ndarray:
    """Partial ``name`` of ``coeffs`` evaluated once at the left nodes of all
    steps: ``t`` of shape (1, N) against ``x``, ``u`` of shape (n_paths, N).
    A jump partial (``gamma_*``) carries one column per atom of the path
    bundle's noise.  Arrays follow the step-major layout of ``x`` and ``u``."""
    levy = forward.noise.levy
    t, x, u = forward.grid.times()[None, :-1], forward.X[:, :-1], forward.u
    if not name.startswith("gamma"):
        return np.broadcast_to(np.asarray(getattr(coeffs, name)(t, x, u), dtype=float), u.shape)
    out = np.empty(u.shape + (levy.n_atoms,), order="F")
    for k, zeta in enumerate(levy.zetas):
        out[:, :, k] = getattr(coeffs, name)(t, x, u, zeta)
    return out


def partials_along(coeffs: ControlledCoefficients, forward: PathBundle) -> CoefficientPartials:
    """The state partials f_x, b_x, sigma_x and gamma_x along ``forward``,
    each evaluated once over all steps (``_along``); no control partial is
    evaluated."""
    return CoefficientPartials(*(_along(coeffs, forward, name) for name in ("f_x", "b_x", "sigma_x", "gamma_x")))


def adjoint_for(coeffs: ControlledCoefficients, forward: PathBundle) -> AdjointTriple:
    """Explicit adjoint triple along the simulated paths of a control
    (``solve_adjoint``); grid and atoms come from the path bundle's noise."""
    return solve_adjoint(partials_along(coeffs, forward), coeffs.g_x(forward.X[:, -1]), forward)[0]


def spike_perturb(base: ControlLaw, grid: TimeGrid, tau: float, epsilon: float, v, x_at_tau=None) -> SpikedLaw:
    """Base law overridden by ``v`` on the steps ``grid.window_steps(tau, epsilon)``.

    A feedback spike value is frozen at tau: the perturbed and base states
    coincide there, so ``x_at_tau`` (state of the base path at the spike
    step) evaluates v exactly.
    """
    window = grid.window_steps(tau, epsilon)
    if callable(v) and x_at_tau is None:
        raise ValueError("a feedback spike value needs the state at tau")
    values = np.asarray(v(np.asarray(x_at_tau, dtype=float)), dtype=float) if callable(v) else float(v)
    return SpikedLaw(base, window, values)


def _running_cost(coeffs: ControlledCoefficients, forward: PathBundle, stop: int | None = None) -> np.ndarray:
    """Per-path left-Riemann sum of f(t, X, u) dt over the steps before ``stop`` (all steps by default)."""
    grid = forward.grid
    times = grid.times()
    total = np.zeros(forward.n_paths)
    for i in range(grid.n_steps if stop is None else stop):
        total += coeffs.f(times[i], forward.X[:, i], forward.u[:, i]) * grid.dt
    return total


def performance_values(coeffs: ControlledCoefficients, forward: PathBundle) -> np.ndarray:
    """Per-path value of int f(t, X, u) dt + g(X(T)) on a simulated path bundle, left-Riemann in time."""
    return _running_cost(coeffs, forward) + coeffs.g(forward.X[:, -1])


def _run_start(law: SpikedLaw) -> int:
    """First step at which the spiked path can leave the base path: the window's first step."""
    return int(np.argmax(law.window))


def spiked_values(law: SpikedLaw, coeffs: ControlledCoefficients, forward: PathBundle, prefixes: dict) -> np.ndarray:
    """Per-path value of the spiked law, run from its window on, bit for bit
    ``performance_values(coeffs, euler_forward(coeffs, law, forward.noise, x0))``.

    ``forward`` is the path bundle of ``law.base``.  Before the window's first
    step the spiked and base paths coincide, so the run starts there from the
    base state, with the base running cost summed over the earlier steps in
    the order ``performance_values`` sums it, then Euler-steps to T adding f
    as it goes; it stores no paths.  ``prefixes`` maps a start step to that
    base sum: the caller passes one dict to every run on the same ``coeffs``
    and ``forward``, so runs that start at one step share one sum.
    """
    grid = forward.grid
    n_steps = grid.n_steps
    start = _run_start(law)
    if start not in prefixes:
        prefixes[start] = _running_cost(coeffs, forward, start)
    total = prefixes[start].copy()
    times = grid.times()
    x = forward.X[:, start]
    for i in range(start, n_steps):
        u, nxt = _euler_step(coeffs, law, forward.noise, i, times[i], x)
        total += coeffs.f(times[i], x, u) * grid.dt
        x = nxt
    return total + coeffs.g(x)


def variational_Z(law: SpikedLaw, coeffs: ControlledCoefficients, forward: PathBundle) -> np.ndarray:
    """State sensitivity Z of the spiked control ``law``, per path on grid nodes.

    Z linearizes around the base path bundle ``forward`` (partials at the
    base state and control, on its noise) with Z(tau) = 0; the spike is the
    law's window and values (``spike_perturb``).  Z reads the state partials
    of ``partials_along`` and the control partials b_u, sigma_u and gamma_u,
    which it evaluates itself (``_along``), and Euler-steps the linear
    equations driven by (v - u) on the window and homogeneously after it.
    """
    noise = forward.noise
    grid, levy = noise.grid, noise.levy
    n_paths, n_steps = noise.n_paths, grid.n_steps
    dt = grid.dt
    part = partials_along(coeffs, forward)
    b_u, sigma_u, gamma_u = (_along(coeffs, forward, name) for name in ("b_u", "sigma_u", "gamma_u"))

    window = law.window
    first = _run_start(law)
    du = np.zeros((n_paths, n_steps), order="F")
    du[:, window] = np.reshape(coeffs.clamp(law.spike_values), (-1, 1)) - forward.u[:, window]

    Z = np.zeros((n_paths, n_steps + 1), order="F")
    for i in range(first, n_steps):
        z = Z[:, i]
        dz = (part.b_x[:, i] * z + b_u[:, i] * du[:, i]) * dt
        dz += (part.sigma_x[:, i] * z + sigma_u[:, i] * du[:, i]) * noise.dB[:, i]
        for k in range(levy.n_atoms):
            dz += (part.gamma_x[:, i, k] * z + gamma_u[:, i, k] * du[:, i]) * noise.compensated_column(i, k)
        Z[:, i + 1] = z + dz
    return Z


@dataclass
class SmpVerdict:
    """Cellwise statistics, difference quotients, and the overall verdict."""

    tau_grid: list
    v_grid: list
    eps_grid: list
    statistic: np.ndarray  # (n_tau, n_v)
    statistic_se: np.ndarray
    diff_quotient: np.ndarray  # (n_tau, n_v, n_eps)
    diff_quotient_se: np.ndarray
    pass_cells: np.ndarray  # (n_tau, n_v) bool
    gap_shrinks: np.ndarray  # (n_tau, n_v) bool
    passed: bool


def check_spike_grids(coeffs: ControlledCoefficients, grid: TimeGrid, tau_grid, v_grid, eps_grid) -> None:
    """Inputs of the verdict: no grid is empty, every v lies in the control set, every
    [tau, tau + eps) is a spike window of ``grid`` (``TimeGrid.window_steps``), and no two
    eps select the same steps at one tau, which would run one spiked law twice."""
    for name, values in (("tau_grid", tau_grid), ("v_grid", v_grid), ("eps_grid", eps_grid)):
        if len(values) == 0:
            raise ValueError(f"{name} must not be empty")
    coeffs.check_controls(v_grid, "v_grid values")
    for tau in tau_grid:
        seen = {}
        for eps in eps_grid:
            steps = tuple(np.flatnonzero(grid.window_steps(tau, eps)))
            if steps in seen:
                raise ValueError(f"eps_grid values {seen[steps]} and {eps} select the same steps at tau = {tau}")
            seen[steps] = eps


def check_necessary_condition(
    candidate: ControlLaw,
    coeffs: ControlledCoefficients,
    noise: NoiseBundle,
    x0: float,
    tau_grid,
    v_grid,
    eps_grid,
) -> SmpVerdict:
    """Numerical verdict of the first-order optimality inequality.

    Pass requires every cell statistic <= 3 SE (one-sided) and, per cell,
    |diff_quotient - statistic| non-increasing along shrinking eps within
    3 SE noise bands.  The Hamiltonian sums over the atoms of the noise
    bundle, the same measure that drives the state and fits the adjoint.
    The inputs are checked first (``check_spike_grids``).  The candidate is
    simulated once; every (tau, v, eps) run starts at its window from the
    base state and the base running cost (``spiked_values``), and the runs
    that start at one step in one process share that cost.  The runs go in
    forked chunks as the module docstring says.
    """
    grid, levy = noise.grid, noise.levy
    tau_grid = [float(t) for t in tau_grid]
    v_grid = [float(v) for v in v_grid]
    eps_grid = sorted((float(e) for e in eps_grid), reverse=True)
    check_spike_grids(coeffs, grid, tau_grid, v_grid, eps_grid)

    forward = euler_forward(coeffs, candidate, noise, x0)
    triple = adjoint_for(coeffs, forward)
    j_base = performance_values(coeffs, forward)
    times = grid.times()

    shape = (len(tau_grid), len(v_grid))
    stat = np.empty(shape)
    stat_se = np.empty(shape)
    cells = []  # spiked laws in (tau, v, eps) order

    for a, tau in enumerate(tau_grid):
        i = grid.step_of(tau)
        t_i = times[i]
        x_i, u_i = forward.X[:, i], forward.u[:, i]
        dh_du = hamiltonian_du(t_i, x_i, u_i, triple.p[:, i], triple.q[:, i], triple.r[:, i], coeffs, levy)
        for b, v in enumerate(v_grid):
            stat[a, b], stat_se[a, b] = mean_se(dh_du * (v - u_i))
            for eps in eps_grid:
                cells.append(spike_perturb(candidate, grid, tau, eps, v, x_at_tau=x_i))

    # one (quotient, SE) row per cell; forked chunks write their rows through shared memory
    quotients = shared_zeros((len(cells), 2), float)
    prefixes = {}

    def run_cells(lo: int, hi: int) -> None:
        for k in range(lo, hi):
            law = cells[k]
            j_eps = spiked_values(law, coeffs, forward, prefixes)
            # the quotient divides by the window the grid realizes, not by eps
            quotients[k] = mean_se((j_eps - j_base) / (law.window.sum() * grid.dt))

    run_chunks(run_cells, [noise.n_paths * (grid.n_steps - _run_start(law)) for law in cells])
    dq = np.array(quotients[:, 0]).reshape(shape + (len(eps_grid),))
    dq_se = np.array(quotients[:, 1]).reshape(shape + (len(eps_grid),))

    pass_cells = stat <= 3.0 * stat_se
    gaps = np.abs(dq - stat[..., None])
    band = 3.0 * (dq_se[..., :-1] + dq_se[..., 1:] + stat_se[..., None])
    gap_ok = ~np.any(gaps[..., 1:] > gaps[..., :-1] + band, axis=-1)
    return SmpVerdict(
        tau_grid=tau_grid,
        v_grid=v_grid,
        eps_grid=eps_grid,
        statistic=stat,
        statistic_se=stat_se,
        diff_quotient=dq,
        diff_quotient_se=dq_se,
        pass_cells=pass_cells,
        gap_shrinks=gap_ok,
        passed=bool(pass_cells.all() and gap_ok.all()),
    )
