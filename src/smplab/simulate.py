"""Noise sampling and forward simulation of controlled jump diffusions.

Sampling is counter-based: path k draws from a Philox generator keyed by
(seed, k), so every bundle is a pure function of its arguments, independent
of worker count, and the first k paths of an n-path ensemble coincide with
the k-path ensemble for the same seed.

Two computations fork: ``sample_noise`` (per path) and
``smp.check_necessary_condition`` (per spiked cell).  Each hands
``run_chunks`` its work items with their path-step costs; ``run_chunks``
cuts the items into contiguous chunks of about equal cost and runs every
chunk but the first in a forked child that writes into shared memory.  There
is one chunk per CPU in the process's affinity set (``os.sched_getaffinity``;
one where the platform has none), at most one per item and at most one per
``FORK_CHUNK_PATH_STEPS`` path-steps, so small runs and one-CPU processes
compute in the calling process.  A chunk whose child fails is run again in
the calling process, so a failure raises what the in-process run raises.

Two more run in a thread (``beside``): the implicit cross-check of
``bsde.solve_adjoint`` beside its explicit sweep, and the two digests of a
``solve-bsde`` run beside its cross-solver distance.  The same chunk rule
decides, each of the two stages costing n_paths * N path-steps: a helper
thread when the rule cuts them into two chunks, else the calling thread.
numpy and hashlib release the GIL on whole columns, so the stages overlap.
No setting selects any of it: the bits are the same either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, SingularJumpCoefficient
from .model import DELTA_SING, ControlLaw, ControlledCoefficients, LevyMeasure, OpenLoopLaw, TimeGrid

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# Largest admissible expected jump count lam_k dt per atom and step.  Counts
# are stored as int16, and P(Poisson(1e4) > 32767) is far below 1e-100.
MAX_STEP_RATE = 1e4

# Rows per block of ``row_blocks`` and of the Brownian draw in ``sample_noise``.
ROW_BLOCK = 1024

# Fewest path-steps per forked chunk (32,768 paths of 100 steps): below two
# chunks the work stays in the calling process, where a fork costs more than it saves.
FORK_CHUNK_PATH_STEPS = 32_768 * 100


def row_blocks(a: np.ndarray):
    """Consecutive blocks of at most ``ROW_BLOCK`` rows of ``a``, each a C-ordered copy.

    Per-step arrays are stored step-major (Fortran order), so one step is a
    contiguous column.  A sum over steps, a matrix product or a byte dump of
    such an array gives other bits than on the C-ordered array, and
    ``np.ascontiguousarray`` of all of it is a second full-size array; row by
    row through these blocks, each gives the C-ordered bits and holds at most
    one block.  A block is a copy whatever the layout of ``a``, so a reader may
    write into it.
    """
    for start in range(0, a.shape[0], ROW_BLOCK):
        yield np.array(a[start : start + ROW_BLOCK], order="C")


def running_sum(out: np.ndarray) -> np.ndarray:
    """In place: column 0 of the step-major (n_paths, N+1) ``out`` becomes 0 and column i the
    sum of the step increments in columns 1..i, added a contiguous column at a time in step
    order, which gives the bits of a cumulative sum along the steps.  Returns ``out``."""
    out[:, 0] = 0.0
    for i in range(1, out.shape[1] - 1):
        np.add(out[:, i], out[:, i + 1], out=out[:, i + 1])
    return out


@dataclass(frozen=True, eq=False)
class NoiseBundle:
    """Driving noise on a grid: Brownian increments and per-atom jump counts.

    ``dB`` has shape (n_paths, N), stored step-major; ``jump_counts`` has
    shape (n_paths, N, n_atoms), C-ordered, and bins every jump to the step
    in which it occurred.  Arrays are read-only.  The paths built from them are
    step-major ``running_sum``s.  The compensated counts are never stored:
    ``compensated_counts`` forms a range of paths and ``compensated_column``
    one step of one atom, both from ``jump_counts`` elementwise.
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

    def _path(self, increments: np.ndarray) -> np.ndarray:
        """The ``running_sum`` of (n_paths, N) step increments: (n_paths, N+1), step-major, 0 at t = 0."""
        out = np.empty((self.n_paths, self.grid.n_steps + 1), order="F")
        out[:, 1:] = increments
        return running_sum(out)

    def brownian(self) -> np.ndarray:
        """Brownian path values at the N+1 grid nodes, B(0) = 0, step-major."""
        return self._cached("brownian", lambda: self._path(self.dB))

    def compensated_counts(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Per-step compensated jump counts dN - intensity * dt of the paths [start, stop),
        shape (stop - start, N, K), C-ordered.  Formed afresh on every call and not kept:
        a reader that reduces over steps takes one ``ROW_BLOCK`` of paths at a time."""
        lam = self.levy.intensities
        return self.jump_counts[start:stop].astype(float) - lam[None, None, :] * self.grid.dt

    def compensated_column(self, step: int, atom: int) -> np.ndarray:
        """Compensated counts dN_k - lam_k dt of one step and atom on every path, shape (n_paths,),
        with the bits of that column of ``compensated_counts``."""
        rate = (self.levy.intensities * self.grid.dt)[atom]
        return self.jump_counts[:, step, atom].astype(float) - rate

    def compensated_jump_path(self) -> np.ndarray:
        """Path of the compensated jump process sum_k zeta_k * (N_k - lam_k t), step-major; 0 with no atom."""

        def build():
            out = np.empty((self.n_paths, self.grid.n_steps + 1), order="F")
            for start in range(0, self.n_paths, ROW_BLOCK):
                comp = self.compensated_counts(start, start + ROW_BLOCK)
                out[start : start + ROW_BLOCK, 1:] = (comp * self.levy.zetas).sum(axis=2)
            return running_sum(out)

        return self._cached("compensated_jump_path", build)


def _path_generator(seed: int, path: int) -> np.random.Generator:
    key = np.array([seed & _SEED_MASK, path & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def step_rates(grid: TimeGrid, levy: LevyMeasure) -> np.ndarray:
    """Expected jump count lam_k dt per atom and step; none may exceed ``MAX_STEP_RATE``."""
    rates = levy.intensities * grid.dt
    if np.any(rates > MAX_STEP_RATE):
        raise ValueError(f"expected jump count per step lam_k dt must not exceed {MAX_STEP_RATE:g}")
    return rates


def _draw_paths(seed: int, rates: np.ndarray, sqrt_dt: float, dB: np.ndarray, counts: np.ndarray, lo: int, hi: int):
    """Draw paths [lo, hi) into the same rows of ``dB`` and ``counts``."""
    n_steps, n_atoms = counts.shape[1:]
    # Re-keying one Philox instance per path is bit-identical to constructing
    # Philox(key=(seed, k)) afresh (see _path_generator) and much cheaper.  The
    # state setter copies every value, so one state dict serves every path;
    # its entries are Python ints, which the setter reads faster than array items.
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = [seed & _SEED_MASK, 0]
    state["state"] = {"counter": [0, 0, 0, 0], "key": key}
    state["buffer"] = [0, 0, 0, 0]
    # A path's normals and counts fill one row of C-ordered blocks; once full,
    # the normals are scaled into dB and the counts cast into ``counts``.
    block_rows = min(hi - lo, ROW_BLOCK)
    block = np.empty((block_rows, n_steps))
    count_block = np.empty((block_rows, n_steps, n_atoms), dtype=np.int64)
    # One atom draws from a scalar rate, which gives the same bits as the
    # (1,)-array form at half the cost; several atoms keep the array form,
    # whose draw order any other layout would change.
    if n_atoms == 1:
        lam, size, count_rows = rates[0], n_steps, count_block[:, :, 0]
    else:
        lam, size, count_rows = rates, (n_steps, n_atoms), count_block
    for start in range(lo, hi, ROW_BLOCK):
        n = min(ROW_BLOCK, hi - start)
        for j in range(n):
            key[1] = start + j
            bitgen.state = state
            gen.standard_normal(out=block[j])
            if n_atoms:
                count_rows[j] = gen.poisson(lam, size)
        np.multiply(block[:n], sqrt_dt, out=dB[start : start + n])
        if n_atoms:
            counts[start : start + n] = count_block[:n]


def shared_zeros(shape: tuple[int, ...], dtype, order: str = "C") -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, which forked children write through."""
    import math
    import mmap

    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if not nbytes:
        return np.zeros(shape, dtype=dtype, order=order)
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, nbytes), order=order)


def _chunk_bounds(costs) -> list[int]:
    """Bounds of the chunks ``run_chunks`` cuts items of these path-step costs
    into, by the chunk rule of the module docstring: each cut at the item
    boundary nearest an equal share of the summed costs, no chunk empty."""
    import os

    n = len(costs)
    before = np.concatenate([[0], np.cumsum(costs)])
    # macOS and Windows have no affinity set; there the calling process does all the work
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_chunks = max(1, min(cpus, n, int(before[-1]) // FORK_CHUNK_PATH_STEPS))
    bounds = [0]
    for j in range(1, n_chunks):
        cut = int(np.argmin(np.abs(before - before[-1] * j / n_chunks)))
        bounds.append(min(max(cut, bounds[-1] + 1), n - (n_chunks - j)))
    return bounds + [n]


def run_chunks(work, costs) -> None:
    """Run ``work(lo, hi)`` on the items [lo, hi) of every chunk that
    ``_chunk_bounds`` cuts the items of path-step ``costs`` into: the first
    chunk in this process, each other one in a forked child.

    A chunk whose child does not exit with status 0 is run again in this
    process, in chunk order, once every child has exited; so the call raises
    what running every chunk here in order raises.  No child outlives the call.
    """
    import os
    import signal

    bounds = _chunk_bounds(costs)
    pids = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:
                # the child never returns into the caller's frames
                try:
                    work(lo, hi)
                except BaseException:
                    os._exit(1)
                os._exit(0)
            pids.append(pid)
        work(bounds[0], bounds[1])
        statuses = []
        while pids:
            _, wait_status = os.waitpid(pids[0], 0)
            pids.pop(0)
            statuses.append(os.waitstatus_to_exitcode(wait_status))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for j, status in enumerate(statuses, start=1):
        if status:
            work(bounds[j], bounds[j + 1])


@contextmanager
def beside(stage, path_steps: int):
    """Context yielding ``put``: ``put(*args)`` runs ``stage(*args)``, the calls in order.

    When ``_chunk_bounds`` cuts two items of ``path_steps`` each into two
    chunks, the calls run in one helper thread beside the caller, which hands
    them over through a queue of at most two; else ``put`` is ``stage`` and
    runs it at once.  A stage may not read what the caller writes after its
    ``put``.  Leaving the context joins the helper.  The first error of a stage
    is raised at the next ``put`` or on leaving, in place of any error the
    caller meets after that call's ``put``: the context raises what running
    each call at its ``put`` raises.
    """
    import queue
    import threading

    if len(_chunk_bounds([path_steps, path_steps])) < 3:
        yield stage
        return
    calls = queue.Queue(maxsize=2)
    failures = []

    def drain():
        # after a failure the calls are taken but not run, so ``put`` never blocks for good
        while (args := calls.get()) is not None:
            if not failures:
                try:
                    stage(*args)
                except BaseException as exc:
                    failures.append(exc)

    def put(*args):
        if failures:
            raise failures[0]
        calls.put(args)

    helper = threading.Thread(target=drain)
    helper.start()
    try:
        yield put
    finally:
        calls.put(None)
        helper.join()
        if failures:
            raise failures[0]


def sample_noise(grid: TimeGrid, levy: LevyMeasure, n_paths: int, seed: int) -> NoiseBundle:
    """Draw a noise bundle, deterministic in (grid, levy, n_paths, seed).

    Paths are drawn in forked chunks (``run_chunks``) into shared memory.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_steps = grid.n_steps
    sqrt_dt = np.sqrt(grid.dt)
    rates = step_rates(grid, levy)
    dB = shared_zeros((n_paths, n_steps), float, "F")
    counts = shared_zeros((n_paths, n_steps, levy.n_atoms), np.int16, "C")
    run_chunks(lambda lo, hi: _draw_paths(seed, rates, sqrt_dt, dB, counts, lo, hi), np.full(n_paths, n_steps))
    dB.flags.writeable = False
    counts.flags.writeable = False
    return NoiseBundle(grid=grid, levy=levy, n_paths=n_paths, seed=seed, dB=dB, jump_counts=counts)


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Forward states on grid nodes plus the controls that produced them.

    A control that is the same on every path is stored once: ``u`` is then a
    read-only broadcast view of one (1, N) row, which a writer copies first.
    """

    grid: TimeGrid
    X: np.ndarray  # (n_paths, N+1), step-major
    u: np.ndarray  # (n_paths, N), step-major, or a read-only view of one row
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
            for k, zeta in enumerate(levy.zetas):
                nxt = nxt + coeffs.gamma(t, x, u, zeta) * noise.compensated_column(i, k)
    if not np.all(np.isfinite(nxt)):
        bad = int(np.flatnonzero(~np.isfinite(nxt))[0])
        raise NonFiniteState(step=i, path=bad)
    return u, nxt


def euler_forward(coeffs: ControlledCoefficients, law: ControlLaw, noise: NoiseBundle, x0: float) -> PathBundle:
    """Euler step with explicit compensation of the jump measure.

    X[i+1] = X[i] + b dt + sigma dB_i + sum_k gamma(.., zeta_k) (dN_k - lam_k dt),
    all coefficients evaluated at the left node (t_i, X_i, u_i).  An open-loop
    law of (N,) values gives every path the same clamped control, so ``u`` is a
    read-only broadcast view of one row; every other law stores one per path.
    Open-loop values of another shape than (N,) and (n_paths, N) are refused.
    """
    grid = noise.grid
    n_paths, n_steps = noise.n_paths, grid.n_steps
    times = grid.times()
    open_loop = isinstance(law, OpenLoopLaw)
    if open_loop and law.values.shape not in ((n_steps,), (n_paths, n_steps)):
        raise ValueError(
            f"open-loop values have shape {law.values.shape}, but the run needs ({n_steps},) or ({n_paths}, {n_steps})"
        )
    shared = open_loop and law.values.ndim == 1

    X = np.empty((n_paths, n_steps + 1), order="F")
    U = np.empty((1 if shared else n_paths, n_steps), order="F")
    x = np.full(n_paths, x0, dtype=float)
    X[:, 0] = x
    for i in range(n_steps):
        u, x = _euler_step(coeffs, law, noise, i, times[i], x)
        U[:, i] = u[0] if shared else u
        X[:, i + 1] = x
    return PathBundle(grid=grid, X=X, u=np.broadcast_to(U, (n_paths, n_steps)) if shared else U, noise=noise)


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
    pi = np.empty((noise.n_paths, grid.n_steps + 1), order="F")
    np.subtract(drift * dt - s1 * noise.dB, jump_log, out=pi[:, 1:])
    return np.exp(running_sum(pi), out=pi)


def linear_closed_form(lin: LinearCoefficients, noise: NoiseBundle, x0: float) -> PathBundle:
    """Variation-of-constants solution of the linear SDE on the grid.

    X(t) = Upsilon(t)^{-1} [x0 + int Upsilon (b0 + sum_k (1/(1+g1_k) - 1) g0_k lam_k) ds
           + int Upsilon s0 dB + int Upsilon g0/(1+g1) d(compensated N)],
    with every stochastic integral discretized at the left endpoint on the
    same noise bundle.  The control is zero on every path: ``u`` is a read-only
    broadcast view of one zero row.
    """
    grid, levy = noise.grid, noise.levy
    n_paths, n_steps, n_atoms = noise.n_paths, grid.n_steps, levy.n_atoms
    dt = grid.dt
    b0, b1, s0, s1, g0, g1 = lin.broadcast(n_paths, n_steps, n_atoms)

    ups = _upsilon(b1, s1, g1, noise)
    drift = b0.copy()
    jump = 0.0
    if n_atoms:
        lam = levy.intensities[None, None, :]
        one_plus = 1.0 + g1
        drift = drift + ((1.0 / one_plus - 1.0) * g0 * lam).sum(axis=2)
        jump = np.empty((n_paths, n_steps))
        for start in range(0, n_paths, ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            jump[rows] = (g0[rows] / one_plus[rows] * noise.compensated_counts(start, rows.stop)).sum(axis=2)
    X = np.empty((n_paths, n_steps + 1), order="F")
    np.multiply(ups[:, :-1], drift * dt + s0 * noise.dB + jump, out=X[:, 1:])
    running_sum(X)[:, 1:] += x0
    X[:, 0] = x0
    X /= ups
    # the earliest step whose end state is not finite, then the lowest path, as in ``_euler_step``
    bad = np.flatnonzero(~np.isfinite(X[:, 1:]).ravel(order="F"))
    if bad.size:
        step, path = divmod(int(bad[0]), n_paths)
        raise NonFiniteState(step=step, path=path)
    return PathBundle(grid=grid, X=X, u=np.broadcast_to(np.zeros((1, n_steps)), (n_paths, n_steps)), noise=noise)


def gamma_process(b_x: np.ndarray, sigma_x: np.ndarray, gamma_x: np.ndarray, noise: NoiseBundle) -> np.ndarray:
    """First-variation weight Gamma with
    dGamma = Gamma(t-) [b_x dt + sigma_x dB + sum_k gamma_x (dN_k - lam_k dt)],
    Gamma(0) = 1; returned per path on all grid nodes, strictly positive.
    """
    lin = LinearCoefficients(b1=b_x, s1=sigma_x, g1=gamma_x)
    arrs = lin.broadcast(noise.n_paths, noise.grid.n_steps, noise.levy.n_atoms)
    return 1.0 / _upsilon(arrs[1], arrs[3], arrs[5], noise)
