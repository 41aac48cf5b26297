"""Linear adjoint BSDE solvers and martingale-coefficient extraction.

Sign convention: a backward equation dp(t) = -h(t) dt + q(t) dB(t)
+ int r(t, zeta) compensated-N(dt, dzeta) with generator h discretizes to
p(t_i) = E[p(t_{i+1}) + h(t_i) dt | F_{t_i}].  The adjoint equation of the
control problem has generator h = dH/dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractionFailure
from .malliavin import PolynomialBasis, StateProjector, state_features
from .simulate import NoiseBundle, PathBundle, gamma_process, write_csv

# Atoms whose expected step count falls below this are reported as r = 0
# rather than divided out.
UNIDENTIFIABLE_RATE = 1e-10


@dataclass(frozen=True, eq=False)
class AdjointTriple:
    """Grid-indexed adjoint solution: p on nodes, (q, r) on step intervals."""

    grid: object
    p: np.ndarray  # (n_paths, N+1)
    q: np.ndarray  # (n_paths, N)
    r: np.ndarray  # (n_paths, N, K)
    unidentifiable_atoms: tuple[int, ...] = ()
    p_fits: tuple = ()  # per-step ConditionalFit of p, without training values (explicit solver)

    @property
    def n_paths(self) -> int:
        return self.p.shape[0]


def relative_l2_dtP(a: np.ndarray, b: np.ndarray, dt: float) -> float:
    """Relative L2(dt x P) distance ||a - b|| / ||b|| over (path, step) arrays."""
    num = math.sqrt(float(np.mean(np.sum((a - b) ** 2, axis=1) * dt)))
    den = math.sqrt(float(np.mean(np.sum(b**2, axis=1) * dt)))
    return num / den if den > 0.0 else num


def l2_dtP_norm(a: np.ndarray, dt: float) -> float:
    return math.sqrt(float(np.mean(np.sum(a**2, axis=1) * dt)))


def unidentifiable_atoms(noise: NoiseBundle) -> tuple[int, ...]:
    """Atoms whose expected step count lam_k dt falls below UNIDENTIFIABLE_RATE."""
    rates = noise.levy.intensities * noise.grid.dt
    return tuple(k for k, rate in enumerate(rates) if rate < UNIDENTIFIABLE_RATE)


def fit_qr_step(projector: StateProjector, increment: np.ndarray, noise: NoiseBundle, step: int, q, r, dead) -> None:
    """Fill q[:, step] and r[:, step, k] from one martingale increment of p.

    q is the projection of increment dB_i / dt and r_k that of
    increment (dN_k - lam_k dt) / (lam_k dt); atoms in ``dead`` keep r = 0.
    """
    dt = noise.grid.dt
    q[:, step] = projector.fit(increment * noise.dB[:, step] / dt).fitted
    lam = noise.levy.intensities
    for k in range(noise.levy.n_atoms):
        if k not in dead:
            rate = lam[k] * dt
            r[:, step, k] = projector.fit(increment * noise.compensated_counts()[:, step, k] / rate).fitted


def extract_qr(
    p: np.ndarray, noise: NoiseBundle, basis: PolynomialBasis | None = None
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Martingale coefficients of an adapted process by conditional regression.

    q(t_i) and r(t_i, zeta_k) are the fitted conditional expectations of
    (p(t_{i+1}) - p(t_i)) dB_i / dt and
    (p(t_{i+1}) - p(t_i)) (dN_k - lam_k dt) / (lam_k dt)
    against polynomial features of the time-t_i driving noise state
    (``state_features``); this is the grid surrogate for the right limits
    E[D_t p(t+) | F_t] identifying (q, r).  Atoms with lam_k dt below 1e-10
    are unidentifiable and yield r = 0.
    """
    grid, levy = noise.grid, noise.levy
    n_paths, n_steps = p.shape[0], grid.n_steps
    if p.shape != (n_paths, n_steps + 1):
        raise ValueError("p must hold one value per path and grid node")
    q = np.empty((n_paths, n_steps))
    r = np.zeros((n_paths, n_steps, levy.n_atoms))
    dead = unidentifiable_atoms(noise)
    d_p = p[:, 1:] - p[:, :-1]
    for i in range(n_steps):
        fit_qr_step(StateProjector(state_features(noise, i), basis), d_p[:, i], noise, i, q, r, dead)
    return q, r, dead


def solve_linear_explicit(
    f_x: np.ndarray,
    b_x: np.ndarray,
    sigma_x: np.ndarray,
    gamma_x: np.ndarray,
    terminal: np.ndarray,
    forward: PathBundle,
    basis: PolynomialBasis | None = None,
) -> AdjointTriple:
    """Adjoint solution by the weighted conditional-expectation formula.

    With Gamma the first-variation weight of the driver partials,
    p(t_i) = E[Gamma(T)/Gamma(t_i) terminal
              + sum_{j>=i} Gamma(t_j)/Gamma(t_i) f_x(t_j) dt | F_{t_i}],
    the conditional expectation realized by regression on X(t_i).  (q, r)
    are fitted as in ``extract_qr`` against the same per-step projector.
    Gamma is exactly 1 when b_x, sigma_x and gamma_x all vanish, and is then
    not computed.  The per-step fits of p are kept in ``p_fits``.
    """
    noise = forward.noise
    grid = noise.grid
    n_paths, n_steps = forward.n_paths, grid.n_steps
    dt = grid.dt
    terminal = np.asarray(terminal, dtype=float)

    if np.any(b_x) or np.any(sigma_x) or np.any(gamma_x):
        gam = gamma_process(b_x, sigma_x, gamma_x, noise)
    else:
        gam = np.ones((1, n_steps + 1))
    p = np.empty((n_paths, n_steps + 1))
    q = np.empty((n_paths, n_steps))
    r = np.zeros((n_paths, n_steps, noise.levy.n_atoms))
    dead = unidentifiable_atoms(noise)
    fits = [None] * n_steps
    p[:, n_steps] = terminal
    f_x = np.broadcast_to(np.asarray(f_x, dtype=float), (n_paths, n_steps))
    tail = gam[:, n_steps] * terminal
    for i in range(n_steps - 1, -1, -1):
        tail = tail + gam[:, i] * f_x[:, i] * dt
        projector = StateProjector(forward.X[:, i], basis)
        fit = projector.fit(tail / gam[:, i])
        p[:, i] = fit.fitted
        fits[i] = replace(fit, fitted=None)
        fit_qr_step(projector, p[:, i + 1] - p[:, i], noise, i, q, r, dead)
    return AdjointTriple(grid=grid, p=p, q=q, r=r, unidentifiable_atoms=dead, p_fits=tuple(fits))


def solve_regression(
    driver,
    terminal,
    forward: PathBundle,
    basis: PolynomialBasis | None = None,
    max_iters: int = 50,
    tol: float = 1e-8,
) -> AdjointTriple:
    """Backward least-squares scheme with a one-step implicit generator.

    p(t_i) = E[p(t_{i+1}) | F_{t_i}] + driver(t_i, X_i, p_i, q_i, r_i) dt,
    the implicit p_i resolved by fixed-point iteration (the driver argument
    is the previous iterate), capped at ``max_iters`` with tolerance ``tol``.
    ``driver`` is the generator h of dp = -h dt + q dB + r dN-compensated and
    must be Lipschitz in (p, q, r) with dt * Lip < 1; ``terminal`` maps the
    final state to p(T).
    """
    noise = forward.noise
    grid, levy = noise.grid, noise.levy
    n_paths, n_steps = forward.n_paths, grid.n_steps
    dt = grid.dt
    times = grid.times()

    p = np.empty((n_paths, n_steps + 1))
    q = np.empty((n_paths, n_steps))
    r = np.zeros((n_paths, n_steps, levy.n_atoms))
    dead = unidentifiable_atoms(noise)
    p[:, n_steps] = np.asarray(terminal(forward.X[:, n_steps]), dtype=float)

    for i in range(n_steps - 1, -1, -1):
        projector = StateProjector(forward.X[:, i], basis)
        cond = projector.fit(p[:, i + 1]).fitted
        fit_qr_step(projector, p[:, i + 1] - cond, noise, i, q, r, dead)

        p_i = cond
        prev_res = math.inf
        for _ in range(max_iters):
            h = np.asarray(driver(times[i], forward.X[:, i], p_i, q[:, i], r[:, i]), dtype=float)
            p_new = cond + h * dt
            res = float(np.max(np.abs(p_new - p_i)))
            p_i = p_new
            if res < tol:
                break
            if res >= prev_res:
                raise ContractionFailure(f"fixed-point residual stalled at {res:.3e} on step {i}")
            prev_res = res
        else:
            raise ContractionFailure(f"no convergence in {max_iters} iterations on step {i}")
        p[:, i] = p_i
    return AdjointTriple(grid=grid, p=p, q=q, r=r, unidentifiable_atoms=dead)


def dump_adjoint_csv(triple: AdjointTriple, path, max_paths: int | None = None) -> None:
    """Rows (path_id, step, t, p, q, r_atom0, ...); the terminal node row
    reports p only."""
    grid = triple.grid
    times = grid.times()
    n_steps = grid.n_steps
    n_atoms = triple.r.shape[2]
    n_paths = triple.n_paths if max_paths is None else min(max_paths, triple.n_paths)

    def rows():
        for j in range(n_paths):
            for i in range(n_steps):
                yield [j, i, times[i], triple.p[j, i], triple.q[j, i], *triple.r[j, i]]
            yield [j, n_steps, times[-1], triple.p[j, -1], ""] + [""] * n_atoms

    write_csv(path, ["path_id", "step", "t", "p", "q"] + [f"r_atom{k}" for k in range(n_atoms)], rows())
