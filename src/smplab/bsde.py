"""The adjoint BSDE in one backward sweep, and martingale-coefficient extraction.

Sign convention: a backward equation dp(t) = -h(t) dt + q(t) dB(t)
+ int r(t, zeta) compensated-N(dt, dzeta) with generator h discretizes to
p(t_i) = E[p(t_{i+1}) + h(t_i) dt | F_{t_i}].  The adjoint equation of the
control problem has generator h = dH/dx (``hamiltonian_sum``).
The generator reads only the state partials f_x, b_x, sigma_x and gamma_x.
``solve_adjoint`` sweeps back once with one projector on the state per step
(or, for a reader of a few steps, per step it reads and its successor):
it solves the explicit adjoint and, optionally, the p of the implicit
backward regression scheme as a cross-check on the same projectors, which
large runs compute in a helper thread beside the sweep.  The explicit
adjoint keeps p on every path and node, and (q, r) as per-step fits in the
state, which ``AdjointTriple.qr_at`` evaluates where a reader needs them.
``fit_qr_step`` gives one step's (q, r) columns, and ``extract_qr``
regresses the martingale coefficients of a given process on the driving
noise with it.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractionFailure
from .malliavin import StateProjector, state_features
from .model import LevyMeasure
from .simulate import ROW_BLOCK, NoiseBundle, PathBundle, beside, gamma_process, row_blocks

if TYPE_CHECKING:
    from .smp import CoefficientPartials

# Atoms whose expected step count falls below this are reported as r = 0
# rather than divided out.
UNIDENTIFIABLE_RATE = 1e-10


@dataclass(frozen=True, eq=False)
class AdjointTriple:
    """Grid-indexed adjoint solution: p on nodes, and (q, r) on step intervals
    as functions of the state X(t_i), one ``ConditionalFit`` per step and atom.

    q and r are never stored per path: ``qr_at`` evaluates a step's fits.
    """

    p: np.ndarray  # (n_paths, N+1), step-major
    unidentifiable_atoms: tuple[int, ...] = ()
    # per step, ConditionalFits without training values: p's, q's, and r's, one
    # per atom, with None for an unidentifiable atom
    p_fits: tuple = ()
    q_fits: tuple = ()
    r_fits: tuple = ()

    def qr_at(self, step: int, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """q, shape (n,), and r, shape (n, K), of step ``step`` at the states
        X(t_step) of n paths; an unidentifiable atom reads r = 0.  On the full
        column ``forward.X[:, step]`` of the sweep's paths each value has the
        bits of the fit's values on its training sample, since the call repeats
        the projector's standardization, design and product.  A step that the
        sweep did not fit (``solve_adjoint``'s ``steps``) raises ``ValueError``."""
        if self.q_fits[step] is None:
            raise ValueError(f"step {step} has no (q, r) fits: the sweep fitted only the steps it was given")
        q = self.q_fits[step](states)
        r = np.zeros((q.shape[0], len(self.r_fits[step])), order="F")
        for k, fit in enumerate(self.r_fits[step]):
            if fit is not None:
                r[:, k] = fit(states)
        return q, r


def _squares_per_path(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-path sum over steps of (a - b)^2, or of a^2 without ``b``.

    Summed over C-ordered row blocks (``row_blocks``): the bits do not depend
    on the layout of ``a`` and ``b``.  The difference and the square are taken
    in place in ``a``'s block, so at most two blocks are held at once.
    """
    out = np.empty(a.shape[0])
    for start, x in zip(range(0, a.shape[0], ROW_BLOCK), row_blocks(a)):
        rows = slice(start, start + ROW_BLOCK)
        if b is not None:
            np.subtract(x, b[rows], out=x)
        out[rows] = np.sum(np.square(x, out=x), axis=1)
    return out


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


def _qr_targets(increment: np.ndarray, noise: NoiseBundle, step: int):
    """Yield the regression targets of one step's (q, r) from one martingale
    increment of p, one at a time: q's, increment dB_i / dt, then atom k's,
    increment (dN_k - lam_k dt) / (lam_k dt), or None for an atom of
    ``unidentifiable_atoms``."""
    dt, dead = noise.grid.dt, unidentifiable_atoms(noise)
    yield increment * noise.dB[:, step] / dt
    for k, lam in enumerate(noise.levy.intensities):
        yield None if k in dead else increment * noise.compensated_column(step, k) / (lam * dt)


def fit_qr_step(projector: StateProjector, increment: np.ndarray, noise: NoiseBundle, step: int):
    """The (q, r) columns of one step, the fitted values of the ``_qr_targets``
    of one martingale increment of p: q of shape (n_paths,) and r of shape
    (n_paths, K); the ``unidentifiable_atoms`` keep r = 0.
    """
    targets = _qr_targets(increment, noise, step)
    q = projector.fit(next(targets)).fitted
    r = np.zeros((len(increment), noise.levy.n_atoms), order="F")
    for k, target in enumerate(targets):
        if target is not None:
            r[:, k] = projector.fit(target).fitted
    return q, r


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
    r = np.empty((n_paths, n_steps, levy.n_atoms), order="F")
    d_p = p[:, 1:] - p[:, :-1]
    for i in range(n_steps):
        q[:, i], r[:, i] = fit_qr_step(StateProjector(state_features(noise, i)), d_p[:, i], noise, i)
    return q, r, unidentifiable_atoms(noise)


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


def _nodes(forward: PathBundle, terminal: np.ndarray) -> np.ndarray:
    """Step-major (n_paths, N+1) array with p(T) = terminal, its other columns filled by the sweep."""
    p = np.empty((forward.n_paths, forward.grid.n_steps + 1), order="F")
    p[:, -1] = terminal
    return p


def _implicit_step(part: CoefficientPartials, p: np.ndarray, noise: NoiseBundle, projector: StateProjector, i: int):
    """Fill p[:, i] by the implicit regression scheme
    p(t_i) = E[p(t_{i+1}) | F_{t_i}] + h(p_i, q_i, r_i) dt, h the generator
    ``hamiltonian_sum`` of the state partials, with the step's (q, r)
    columns from ``fit_qr_step``.  h is affine in p_i with slope b_x, so the
    step is solved exactly:
    p_i = (E[p(t_{i+1}) | F_{t_i}] + h(0, q_i, r_i) dt) / (1 - b_x dt).
    A path with 1 - b_x dt <= 0 has no stable solution and raises
    ``ContractionFailure``.
    """
    cond = projector.fit(p[:, i + 1]).fitted
    q, r = fit_qr_step(projector, p[:, i + 1] - cond, noise, i)
    dt, b = noise.grid.dt, part.b_x[:, i]
    scale = 1.0 - b * dt
    if not np.all(scale > 0.0):
        raise ContractionFailure(f"1 - b_x dt falls to {float(np.min(scale)):.3e} on step {i}")
    gammas = part.gamma_x[:, i].T  # atom-major: gammas[k] is atom k's column
    h0 = hamiltonian_sum(part.f_x[:, i], b, part.sigma_x[:, i], gammas, 0.0, q, r, noise.levy)
    p[:, i] = (cond + h0 * dt) / scale


def solve_adjoint(
    part: CoefficientPartials,
    terminal: np.ndarray,
    forward: PathBundle,
    cross_check: bool = False,
    steps=None,
) -> tuple[AdjointTriple, np.ndarray | None]:
    """The adjoint triple of the linear equation with generator dH/dx, in one backward sweep.

    ``part`` holds the state partials along ``forward`` (``partials_along``)
    and ``terminal`` is p(T) = g_x(X(T)).  Each step builds one projector on
    X(t_i), and every fit of the step uses it.  The explicit adjoint weights
    by Gamma, the first-variation weight of b_x, sigma_x and gamma_x:
    p(t_i) = E[Gamma(T)/Gamma(t_i) terminal
              + sum_{j>=i} Gamma(t_j)/Gamma(t_i) f_x(t_j) dt | F_{t_i}],
    with (q, r) fitted to the targets of ``extract_qr``.  The per-step fits of
    p, q and r are kept in ``p_fits``, ``q_fits`` and ``r_fits``; q and r are
    never formed on the paths (``AdjointTriple.qr_at`` evaluates them).
    Gamma is exactly 1 when b_x, sigma_x and gamma_x all vanish, and is then
    not computed.  With ``cross_check`` the sweep also runs the
    implicit backward regression scheme (``_implicit_step``) and returns its
    p, step-major of shape (n_paths, N+1), second; its q and r live one step
    at a time.  Otherwise the second item is None.  Implicit step i runs on
    the projector of step i after its explicit fits, through
    ``simulate.beside``: in a helper thread beside the sweep when its chunk
    rule allows two chunks (two CPUs, n_paths * N >= ``FORK_CHUNK_PATH_STEPS``),
    else in the sweep.  The bits, and the error raised first (such as
    ``ContractionFailure`` with its step), are those of the one-thread sweep.

    ``steps``, a collection of step indices, restricts the fits to what a
    reader of those steps needs; None, the default, fits every step.  The
    recursion of the weighted tail still runs over every step, so the fits
    that are built have the bits of the full sweep's.  The sweep builds the
    projector and p fit of each step i in ``steps`` and of its successor
    i + 1 < N, whose p the (q, r) targets of step i read, and the (q, r)
    fits of the steps in ``steps`` only.  A step that is neither keeps NaN
    in its p column and None for its fits, and ``qr_at`` raises on every
    step outside ``steps``.  The implicit scheme needs every step, so
    ``steps`` with ``cross_check`` raises ``ValueError``.
    """
    noise = forward.noise
    n_steps, dt = noise.grid.n_steps, noise.grid.dt
    terminal = np.asarray(terminal, dtype=float)
    if steps is None:
        wanted = built = range(n_steps)
    else:
        if cross_check:
            raise ValueError("the implicit cross-check needs every step, so it takes no steps")
        wanted = frozenset(steps)
        built = wanted | {i + 1 for i in wanted if i + 1 < n_steps}

    if np.any(part.b_x) or np.any(part.sigma_x) or np.any(part.gamma_x):
        gam = gamma_process(part.b_x, part.sigma_x, part.gamma_x, noise)
    else:
        gam = np.ones((1, n_steps + 1))
    p = _nodes(forward, terminal)
    implicit, stage = None, nullcontext()
    if cross_check:
        implicit = _nodes(forward, terminal)
        stage = beside(partial(_implicit_step, part, implicit, noise), forward.n_paths * n_steps)
    p_fits, q_fits, r_fits = [None] * n_steps, [None] * n_steps, [None] * n_steps
    tail = gam[:, n_steps] * terminal
    with stage as implicit_step:
        for i in range(n_steps - 1, -1, -1):
            tail = tail + gam[:, i] * part.f_x[:, i] * dt
            if i not in built:
                p[:, i] = np.nan
                continue
            projector = StateProjector(forward.X[:, i])
            fit = projector.fit(tail / gam[:, i])
            p[:, i] = fit.fitted
            p_fits[i] = replace(fit, fitted=None)
            if i not in wanted:
                continue
            targets = _qr_targets(p[:, i + 1] - p[:, i], noise, i)
            q_fits[i] = projector.fit(next(targets), fitted=False)
            r_fits[i] = tuple(None if t is None else projector.fit(t, fitted=False) for t in targets)
            if implicit_step is not None:
                implicit_step(projector, i)
    triple = AdjointTriple(p, unidentifiable_atoms(noise), tuple(p_fits), tuple(q_fits), tuple(r_fits))
    return triple, implicit
