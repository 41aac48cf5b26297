"""The adjoint BSDE in one backward sweep, and martingale-coefficient extraction.

Sign convention: a backward equation dp(t) = -h(t) dt + q(t) dB(t)
+ int r(t, zeta) compensated-N(dt, dzeta) with generator h discretizes to
p(t_i) = E[p(t_{i+1}) + h(t_i) dt | F_{t_i}].  The adjoint equation of the
control problem has generator h = dH/dx (``hamiltonian_sum``).
``solve_adjoint`` sweeps back once with one projector on the state per step:
it solves the explicit adjoint and, optionally, the implicit backward
regression scheme as a cross-check on the same projectors.  ``extract_qr``
regresses the martingale coefficients of a given process on the driving
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractionFailure
from .malliavin import StateProjector, state_features
from .model import LevyMeasure
from .simulate import NoiseBundle, PathBundle, gamma_process, row_blocks

if TYPE_CHECKING:
    from .smp import CoefficientPartials

# Atoms whose expected step count falls below this are reported as r = 0
# rather than divided out.
UNIDENTIFIABLE_RATE = 1e-10


@dataclass(frozen=True, eq=False)
class AdjointTriple:
    """Grid-indexed adjoint solution: p on nodes, (q, r) on step intervals."""

    p: np.ndarray  # (n_paths, N+1), step-major like every array below
    q: np.ndarray  # (n_paths, N)
    r: np.ndarray  # (n_paths, N, K)
    unidentifiable_atoms: tuple[int, ...] = ()
    p_fits: tuple = ()  # per-step ConditionalFit of p, without training values (explicit adjoint)


def _squares_per_path(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-path sum over steps of (a - b)^2, or of a^2 without ``b``.

    Summed over C-ordered row blocks (``row_blocks``): the bits do not depend
    on the layout of ``a`` and ``b``, and no temporary exceeds one block.
    """
    blocks = row_blocks(a) if b is None else (x - y for x, y in zip(row_blocks(a), row_blocks(b)))
    return np.concatenate([np.sum(x**2, axis=1) for x in blocks])


def relative_l2_dtP(a: np.ndarray, b: np.ndarray, dt: float) -> float:
    """Relative L2(dt x P) distance ||a - b|| / ||b|| over (path, step) arrays."""
    num = math.sqrt(float(np.mean(_squares_per_path(a, b) * dt)))
    den = l2_dtP_norm(b, dt)
    return num / den if den > 0.0 else num


def l2_dtP_norm(a: np.ndarray, dt: float) -> float:
    return math.sqrt(float(np.mean(_squares_per_path(a) * dt)))


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


def extract_qr(p: np.ndarray, noise: NoiseBundle) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Martingale coefficients of an adapted process by conditional regression.

    q(t_i) and r(t_i, zeta_k) are the fitted conditional expectations of
    (p(t_{i+1}) - p(t_i)) dB_i / dt and
    (p(t_{i+1}) - p(t_i)) (dN_k - lam_k dt) / (lam_k dt)
    against the cubic basis in the time-t_i driving noise state
    (``state_features``); this is the grid surrogate for the right limits
    E[D_t p(t+) | F_t] identifying (q, r).  Atoms with lam_k dt below 1e-10
    are unidentifiable and yield r = 0.
    """
    grid, levy = noise.grid, noise.levy
    n_paths, n_steps = p.shape[0], grid.n_steps
    if p.shape != (n_paths, n_steps + 1):
        raise ValueError("p must hold one value per path and grid node")
    q = np.empty((n_paths, n_steps), order="F")
    r = np.zeros((n_paths, n_steps, levy.n_atoms), order="F")
    dead = unidentifiable_atoms(noise)
    d_p = p[:, 1:] - p[:, :-1]
    for i in range(n_steps):
        fit_qr_step(StateProjector(state_features(noise, i)), d_p[:, i], noise, i, q, r, dead)
    return q, r, dead


def hamiltonian_sum(f, b, sigma, gammas, p, q, r, levy: LevyMeasure):
    """f + b p + sigma q + sum_k gammas[k] r_k lam_k over evaluated coefficient values.

    With the state partials (f_x, b_x, sigma_x, gamma_x) it is the generator
    dH/dx of the adjoint equation; ``gammas[k]`` is atom k's value.
    """
    out = f + b * p + sigma * q
    r = np.asarray(r, dtype=float)
    lam = levy.intensities
    for k in range(levy.n_atoms):
        out = out + gammas[k] * r[..., k] * lam[k]
    return out


def _blank_triple(forward: PathBundle, terminal: np.ndarray) -> AdjointTriple:
    """Triple with p(T) = terminal, its other entries filled in place by the sweep."""
    grid, noise, n_paths = forward.grid, forward.noise, forward.n_paths
    p = np.empty((n_paths, grid.n_steps + 1), order="F")
    p[:, -1] = terminal
    q = np.empty((n_paths, grid.n_steps), order="F")
    r = np.zeros((n_paths, grid.n_steps, noise.levy.n_atoms), order="F")
    return AdjointTriple(p=p, q=q, r=r, unidentifiable_atoms=unidentifiable_atoms(noise))


def _implicit_step(
    projector: StateProjector, part: CoefficientPartials, triple: AdjointTriple, noise: NoiseBundle, i: int
) -> None:
    """Fill step i of ``triple`` by the implicit regression scheme
    p(t_i) = E[p(t_{i+1}) | F_{t_i}] + h(p_i, q_i, r_i) dt, h the generator
    ``hamiltonian_sum`` of the state partials.  h is affine in p_i with slope
    b_x, so the step is solved exactly:
    p_i = (E[p(t_{i+1}) | F_{t_i}] + h(0, q_i, r_i) dt) / (1 - b_x dt).
    A path with 1 - b_x dt <= 0 has no stable solution and raises
    ``ContractionFailure``.
    """
    p, q, r = triple.p, triple.q, triple.r
    cond = projector.fit(p[:, i + 1]).fitted
    fit_qr_step(projector, p[:, i + 1] - cond, noise, i, q, r, triple.unidentifiable_atoms)
    dt, b = noise.grid.dt, part.b_x[:, i]
    scale = 1.0 - b * dt
    if not np.all(scale > 0.0):
        raise ContractionFailure(f"1 - b_x dt falls to {float(np.min(scale)):.3e} on step {i}")
    gammas = part.gamma_x[:, i].T  # atom-major: gammas[k] is atom k's column
    h0 = hamiltonian_sum(part.f_x[:, i], b, part.sigma_x[:, i], gammas, 0.0, q[:, i], r[:, i], noise.levy)
    p[:, i] = (cond + h0 * dt) / scale


def solve_adjoint(
    part: CoefficientPartials,
    terminal: np.ndarray,
    forward: PathBundle,
    cross_check: bool = False,
) -> tuple[AdjointTriple, AdjointTriple | None]:
    """The adjoint triple of the linear equation with generator dH/dx, in one backward sweep.

    ``part`` holds the state partials along ``forward`` (``partials_along``)
    and ``terminal`` is p(T) = g_x(X(T)).  Each step builds one projector on
    X(t_i), and every fit of the step uses it.  The explicit adjoint weights
    by Gamma, the first-variation weight of b_x, sigma_x and gamma_x:
    p(t_i) = E[Gamma(T)/Gamma(t_i) terminal
              + sum_{j>=i} Gamma(t_j)/Gamma(t_i) f_x(t_j) dt | F_{t_i}],
    with (q, r) fitted as in ``extract_qr`` and the per-step fits of p kept in
    ``p_fits``.  Gamma is exactly 1 when b_x, sigma_x and gamma_x all vanish,
    and is then not computed.  With ``cross_check`` the sweep also runs the
    implicit backward regression scheme (``_implicit_step``) and returns its
    triple second; otherwise the second item is None.
    """
    noise = forward.noise
    n_steps, dt = noise.grid.n_steps, noise.grid.dt
    terminal = np.asarray(terminal, dtype=float)

    if np.any(part.b_x) or np.any(part.sigma_x) or np.any(part.gamma_x):
        gam = gamma_process(part.b_x, part.sigma_x, part.gamma_x, noise)
    else:
        gam = np.ones((1, n_steps + 1))
    explicit = _blank_triple(forward, terminal)
    regression = _blank_triple(forward, terminal) if cross_check else None
    p, q, r, dead = explicit.p, explicit.q, explicit.r, explicit.unidentifiable_atoms
    fits = [None] * n_steps
    tail = gam[:, n_steps] * terminal
    for i in range(n_steps - 1, -1, -1):
        tail = tail + gam[:, i] * part.f_x[:, i] * dt
        projector = StateProjector(forward.X[:, i])
        fit = projector.fit(tail / gam[:, i])
        p[:, i] = fit.fitted
        fits[i] = replace(fit, fitted=None)
        fit_qr_step(projector, p[:, i + 1] - p[:, i], noise, i, q, r, dead)
        if regression is not None:
            _implicit_step(projector, part, regression, noise, i)
    return replace(explicit, p_fits=tuple(fits)), regression
