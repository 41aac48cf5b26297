"""Noise sampling and forward simulation of controlled jump diffusions.

Sampling is counter-based: path k draws from a Philox generator keyed by
(seed, k), so every bundle is a pure function of its arguments, independent
of worker count, and the first k paths of an n-path ensemble coincide with
the k-path ensemble for the same seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteState, SingularJumpCoefficient
from .model import DELTA_SING, ControlLaw, ControlledCoefficients, LevyMeasure, TimeGrid

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# Largest admissible expected jump count lam_k dt per atom and step.  Counts
# are stored as int16, and P(Poisson(1e4) > 32767) is far below 1e-100.
MAX_STEP_RATE = 1e4


@dataclass(frozen=True, eq=False)
class NoiseBundle:
    """Driving noise on a grid: Brownian increments and per-atom jump counts.

    ``dB`` has shape (n_paths, N); ``jump_counts`` has shape
    (n_paths, N, n_atoms) and bins every jump to the step in which it
    occurred.  Arrays are read-only.
    """

    grid: TimeGrid
    levy: LevyMeasure
    n_paths: int
    seed: int
    dB: np.ndarray
    jump_counts: np.ndarray

    def _cached(self, name: str, build) -> np.ndarray:
        # Derived arrays are large; build them once per bundle.
        cache = self.__dict__.get("_derived")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_derived", cache)
        if name not in cache:
            arr = build()
            arr.flags.writeable = False
            cache[name] = arr
        return cache[name]

    def brownian(self) -> np.ndarray:
        """Brownian path values at the N+1 grid nodes, B(0) = 0."""

        def build():
            out = np.zeros((self.n_paths, self.grid.n_steps + 1))
            np.cumsum(self.dB, axis=1, out=out[:, 1:])
            return out

        return self._cached("brownian", build)

    def compensated_counts(self) -> np.ndarray:
        """Per-step compensated jump counts dN - intensity * dt, shape (n_paths, N, K)."""

        def build():
            lam = self.levy.intensities
            return self.jump_counts.astype(float) - lam[None, None, :] * self.grid.dt

        return self._cached("compensated_counts", build)

    def compensated_jump_path(self) -> np.ndarray:
        """Path of the compensated jump process sum_k zeta_k * (N_k - lam_k t)."""

        def build():
            out = np.zeros((self.n_paths, self.grid.n_steps + 1))
            if self.levy.n_atoms:
                incr = (self.compensated_counts() * self.levy.zetas[None, None, :]).sum(axis=2)
                np.cumsum(incr, axis=1, out=out[:, 1:])
            return out

        return self._cached("compensated_jump_path", build)

    def jumps(self, path: int) -> list[tuple[int, int, int]]:
        """Jump events of one path as (step_index, atom_index, count >= 1)."""
        steps, atoms = np.nonzero(self.jump_counts[path])
        return [(int(i), int(k), int(self.jump_counts[path, i, k])) for i, k in zip(steps, atoms)]


def _path_generator(seed: int, path: int) -> np.random.Generator:
    key = np.array([seed & _SEED_MASK, path & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def step_rates(grid: TimeGrid, levy: LevyMeasure) -> np.ndarray:
    """Expected jump count lam_k dt per atom and step; none may exceed ``MAX_STEP_RATE``."""
    rates = levy.intensities * grid.dt
    if np.any(rates > MAX_STEP_RATE):
        raise ValueError(f"expected jump count per step lam_k dt must not exceed {MAX_STEP_RATE:g}")
    return rates


def sample_noise(grid: TimeGrid, levy: LevyMeasure, n_paths: int, seed: int) -> NoiseBundle:
    """Draw a noise bundle, deterministic in (grid, levy, n_paths, seed)."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_steps = grid.n_steps
    sqrt_dt = np.sqrt(grid.dt)
    rates = step_rates(grid, levy)
    dB = np.empty((n_paths, n_steps))
    counts = np.zeros((n_paths, n_steps, levy.n_atoms), dtype=np.int16)
    # Re-keying one Philox instance per path is bit-identical to constructing
    # Philox(key=(seed, k)) afresh (see _path_generator) and much cheaper.
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    template = bitgen.state
    for k in range(n_paths):
        state = dict(template)
        state["state"] = {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & _SEED_MASK, k & _SEED_MASK], dtype=np.uint64),
        }
        bitgen.state = state
        dB[k] = gen.standard_normal(n_steps) * sqrt_dt
        if levy.n_atoms:
            counts[k] = gen.poisson(lam=rates, size=(n_steps, levy.n_atoms))
    dB.flags.writeable = False
    counts.flags.writeable = False
    return NoiseBundle(grid=grid, levy=levy, n_paths=n_paths, seed=seed, dB=dB, jump_counts=counts)


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Forward states on grid nodes plus the controls that produced them."""

    grid: TimeGrid
    X: np.ndarray  # (n_paths, N+1)
    u: np.ndarray  # (n_paths, N)
    noise: NoiseBundle

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]


def _euler_step(coeffs: ControlledCoefficients, law: ControlLaw, noise: NoiseBundle, i: int, t: float, x: np.ndarray):
    """One Euler step of every path from the states ``x`` at node i (time t).

    Returns the clamped control u_i and the next states X_{i+1}; raises
    ``NonFiniteState`` at the first path whose next state is not finite.
    """
    dt = noise.grid.dt
    levy = noise.levy
    with np.errstate(over="ignore", invalid="ignore"):
        u = coeffs.clamp(law.control_at(i, t, x))
        nxt = x + coeffs.b(t, x, u) * dt + coeffs.sigma(t, x, u) * noise.dB[:, i]
        if levy.n_atoms:
            zetas, lams = levy.zetas, levy.intensities
            for k in range(levy.n_atoms):
                comp = noise.jump_counts[:, i, k].astype(float) - lams[k] * dt
                nxt = nxt + coeffs.gamma(t, x, u, zetas[k]) * comp
    if not np.all(np.isfinite(nxt)):
        bad = int(np.flatnonzero(~np.isfinite(nxt))[0])
        raise NonFiniteState(step=i, path=bad)
    return u, nxt


def euler_forward(coeffs: ControlledCoefficients, law: ControlLaw, noise: NoiseBundle, x0: float) -> PathBundle:
    """Euler step with explicit compensation of the jump measure.

    X[i+1] = X[i] + b dt + sigma dB_i + sum_k gamma(.., zeta_k) (dN_k - lam_k dt),
    all coefficients evaluated at the left node (t_i, X_i, u_i).
    """
    grid = noise.grid
    n_paths, n_steps = noise.n_paths, grid.n_steps
    times = grid.times()

    X = np.empty((n_paths, n_steps + 1))
    U = np.empty((n_paths, n_steps))
    x = np.full(n_paths, x0, dtype=float)
    X[:, 0] = x
    for i in range(n_steps):
        U[:, i], x = _euler_step(coeffs, law, noise, i, times[i], x)
        X[:, i + 1] = x
    return PathBundle(grid=grid, X=X, u=U, noise=noise)


@dataclass(frozen=True)
class LinearCoefficients:
    """Coefficient arrays of the linear SDE
    dX = (b0 + b1 X) dt + (s0 + s1 X) dB + sum_k (g0_k + g1_k X)(dN_k - lam_k dt).

    Scalar entries broadcast.  b0, b1, s0 and s1 take shape (N,) or
    (n_paths, N); g0 and g1 take shape (K,) per atom, (N, K) or
    (n_paths, N, K).  A 1-D jump array is always per atom.
    """

    b0: np.ndarray = 0.0
    b1: np.ndarray = 0.0
    s0: np.ndarray = 0.0
    s1: np.ndarray = 0.0
    g0: np.ndarray = 0.0
    g1: np.ndarray = 0.0

    def broadcast(self, n_paths: int, n_steps: int, n_atoms: int):
        flat = (n_paths, n_steps)
        jump = (n_paths, n_steps, n_atoms)

        def expand(a, shape):
            a = np.asarray(a, dtype=float)
            if a.ndim == 1 and shape == jump and a.shape[0] != n_atoms:
                raise ValueError(f"a 1-D jump coefficient carries one value per atom ({n_atoms}), got {a.shape[0]}")
            return np.broadcast_to(a, shape)

        return (
            expand(self.b0, flat),
            expand(self.b1, flat),
            expand(self.s0, flat),
            expand(self.s1, flat),
            expand(self.g0, jump),
            expand(self.g1, jump),
        )


def _upsilon(b1, s1, g1, noise: NoiseBundle) -> np.ndarray:
    """Reciprocal stochastic exponential of the homogeneous linear SDE.

    Integrating the log gives per step
    dPi = (-b1 + s1^2/2 + sum_k g1_k lam_k) dt - s1 dB - sum_k log(1 + g1_k) dN_k,
    and Upsilon = exp(Pi); jumps divide Upsilon by (1 + g1).
    """
    grid, levy = noise.grid, noise.levy
    dt = grid.dt
    if np.any(1.0 + g1 < DELTA_SING):
        raise SingularJumpCoefficient("1 + g1 fell below the admissible margin")
    drift = -b1 + 0.5 * s1 * s1
    if levy.n_atoms:
        lam = levy.intensities[None, None, :]
        drift = drift + (g1 * lam).sum(axis=2)
        jump_log = (np.log1p(g1) * noise.jump_counts).sum(axis=2)
    else:
        jump_log = 0.0
    d_pi = drift * dt - s1 * noise.dB - jump_log
    pi = np.zeros((d_pi.shape[0], grid.n_steps + 1))
    np.cumsum(d_pi, axis=1, out=pi[:, 1:])
    return np.exp(pi)


def linear_closed_form(lin: LinearCoefficients, noise: NoiseBundle, x0: float) -> PathBundle:
    """Variation-of-constants solution of the linear SDE on the grid.

    X(t) = Upsilon(t)^{-1} [x0 + int Upsilon (b0 + sum_k (1/(1+g1_k) - 1) g0_k lam_k) ds
           + int Upsilon s0 dB + int Upsilon g0/(1+g1) d(compensated N)],
    with every stochastic integral discretized at the left endpoint on the
    same noise bundle.
    """
    grid, levy = noise.grid, noise.levy
    n_paths, n_steps, n_atoms = noise.n_paths, grid.n_steps, levy.n_atoms
    dt = grid.dt
    b0, b1, s0, s1, g0, g1 = lin.broadcast(n_paths, n_steps, n_atoms)

    ups = _upsilon(b1, s1, g1, noise)
    drift = b0.copy()
    jump = np.zeros((n_paths, n_steps))
    if n_atoms:
        lam = levy.intensities[None, None, :]
        one_plus = 1.0 + g1
        drift = drift + ((1.0 / one_plus - 1.0) * g0 * lam).sum(axis=2)
        jump = (g0 / one_plus * noise.compensated_counts()).sum(axis=2)
    incr = ups[:, :-1] * (drift * dt + s0 * noise.dB + jump)
    Y = np.full((n_paths, n_steps + 1), float(x0))
    Y[:, 1:] += np.cumsum(incr, axis=1)
    X = Y / ups
    if not np.all(np.isfinite(X)):
        path, step = [int(v[0]) for v in np.nonzero(~np.isfinite(X))]
        raise NonFiniteState(step=step, path=path)
    u = np.zeros((n_paths, n_steps))
    return PathBundle(grid=grid, X=X, u=u, noise=noise)


def gamma_process(b_x: np.ndarray, sigma_x: np.ndarray, gamma_x: np.ndarray, noise: NoiseBundle) -> np.ndarray:
    """First-variation weight Gamma with
    dGamma = Gamma(t-) [b_x dt + sigma_x dB + sum_k gamma_x (dN_k - lam_k dt)],
    Gamma(0) = 1; returned per path on all grid nodes, strictly positive.
    """
    lin = LinearCoefficients(b1=b_x, s1=sigma_x, g1=gamma_x)
    arrs = lin.broadcast(noise.n_paths, noise.grid.n_steps, noise.levy.n_atoms)
    return 1.0 / _upsilon(arrs[1], arrs[3], arrs[5], noise)


def write_csv(path, header, rows) -> None:
    """Write a header row and data rows as CSV.

    Floats (``np.float64`` included) carry 17 significant digits; every
    other cell, such as an int, a bool or ``""``, is written as it is.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def dump_paths_csv(bundle: PathBundle, path, max_paths: int | None = None) -> None:
    """Write per-path rows (path_id, step, t, X, u, dB, jump_sum).

    The terminal node row (step = N) reports the state only; the interval
    columns are left empty.
    """
    noise = bundle.noise
    times = bundle.grid.times()
    n_steps = bundle.grid.n_steps
    n_paths = bundle.n_paths if max_paths is None else min(max_paths, bundle.n_paths)
    if noise.levy.n_atoms:
        jump_sum = (noise.jump_counts * noise.levy.zetas[None, None, :]).sum(axis=2)
    else:
        jump_sum = np.zeros((bundle.n_paths, n_steps))

    def rows():
        for j in range(n_paths):
            for i in range(n_steps):
                yield [j, i, times[i], bundle.X[j, i], bundle.u[j, i], noise.dB[j, i], jump_sum[j, i]]
            yield [j, n_steps, times[-1], bundle.X[j, -1], "", "", ""]

    write_csv(path, ["path_id", "step", "t", "X", "u", "dB", "jump_sum"], rows())


def perturbed_after(noise: NoiseBundle, step: int) -> NoiseBundle:
    """Copy of the bundle with all increments strictly after ``step`` altered.

    Used as a dependence probe: an adapted step process must be unchanged on
    steps <= step when evaluated on the perturbed bundle.
    """
    dB = noise.dB.copy()
    dB[:, step + 1 :] += 1.0
    counts = noise.jump_counts.copy()
    if noise.levy.n_atoms:
        counts[:, step + 1 :, :] += 1
    dB.flags.writeable = False
    counts.flags.writeable = False
    return replace(noise, dB=dB, jump_counts=counts)
