"""Step-major storage of per-step arrays, and the row-block reductions that keep their bits.

Every float array indexed by (path, step) is Fortran-ordered, so one step is a
contiguous column.  The operations whose bits or memory depend on the layout
(sums over steps, the Brownian-integral product, the payload digest) run over
C-ordered row blocks (``row_blocks``) and give the same bits on either layout.
"""

import math
import tracemalloc
from dataclasses import replace
from hashlib import sha256

import numpy as np
import pytest

from smplab.bsde import _squares_per_path, extract_qr, fit_qr_step, l2_dtP_norm, relative_l2_dtP, solve_adjoint
from smplab.harness import _FUNCTIONALS, _digest, _integrand
from smplab.lqsolver import LqParams, solve_constrained
from smplab import malliavin
from smplab.malliavin import (
    Compose,
    StateProjector,
    _running_column,
    bm_integral,
    check_duality,
    evaluate,
    jump_integral,
    mean_se,
    square_map,
    state_features,
)
from smplab.model import FeedbackLaw, LevyMeasure, OpenLoopLaw, TimeGrid, build_lq_coefficients
from smplab.simulate import (
    ROW_BLOCK,
    LinearCoefficients,
    _euler_step,
    _path_generator,
    euler_forward,
    gamma_process,
    linear_closed_form,
    row_blocks,
    sample_noise,
)
from smplab.smp import partials_along, spike_perturb, variational_Z

GRID = TimeGrid(1.0, 8)
LEVY = LevyMeasure.from_pairs([(0.2, 1.0), (-0.3, 2.0)])
COEFFS = build_lq_coefficients(0.3)
# one path, fewer paths than a block, and a count that is not a multiple of the block
PATH_COUNTS = [1, ROW_BLOCK // 3, ROW_BLOCK + 3]
SOLVER_PATH_COUNTS = PATH_COUNTS[1:]  # a regression needs more paths than its basis has terms


def step_major(a, shape):
    assert a.shape == shape
    assert a.flags.f_contiguous, "per-step arrays are stored step-major"


def one_row(a, shape):
    """A control that is the same on every path: a read-only view of one row, path stride 0."""
    assert a.shape == shape
    assert not a.flags.writeable
    assert a.strides[0] == 0 or shape[0] == 1, "one row serves every path"


def per_path_laws(n_paths):
    """Laws whose controls differ between paths: 2-D open-loop values, feedback and a spiked feedback law."""
    feedback = FeedbackLaw(lambda step, t, x: 0.4 - 0.1 * x)
    return [
        OpenLoopLaw(np.linspace(-0.5, 0.5, n_paths * GRID.n_steps).reshape(n_paths, GRID.n_steps)),
        feedback,
        spike_perturb(feedback, GRID, 0.25, 0.25, 1.5),
    ]


def forward(n_paths, control=0.4):
    noise = sample_noise(GRID, LEVY, n_paths, 3)
    return euler_forward(COEFFS, OpenLoopLaw(np.full(GRID.n_steps, control)), noise, 1.0)


def cumulative(increments):
    """The running sum as ``np.cumsum`` forms it along the steps of path-major increments, 0 at t = 0."""
    out = np.zeros((increments.shape[0], increments.shape[1] + 1))
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


def upsilon(b1, s1, g1, noise):
    """Reciprocal stochastic exponential of the homogeneous linear SDE, from ``cumulative``."""
    lam = noise.levy.intensities[None, None, :]
    drift = -b1 + 0.5 * s1 * s1 + (g1 * lam).sum(axis=2)
    jump_log = (np.log1p(g1) * noise.jump_counts).sum(axis=2)
    return np.exp(cumulative(drift * noise.grid.dt - s1 * noise.dB - jump_log))


def same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestStepMajorStorage:
    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_noise_and_forward_paths(self, n_paths):
        fw = forward(n_paths)
        step_major(fw.noise.dB, (n_paths, GRID.n_steps))
        step_major(fw.X, (n_paths, GRID.n_steps + 1))
        # a control that is the same on every path is stored once; a law that differs between paths stores all
        one_row(fw.u, (n_paths, GRID.n_steps))
        for law in per_path_laws(n_paths):
            step_major(euler_forward(COEFFS, law, fw.noise, 1.0).u, (n_paths, GRID.n_steps))
        assert fw.noise.jump_counts.flags.c_contiguous  # read whole, so it keeps its layout

    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_shared_control_keeps_the_bits_of_every_path(self, n_paths):
        # values below, at and above the control set [0, inf), a negative zero among them
        values = np.array([-1.0, -0.0, 0.0, 0.4, 5.0, -1e-300, 1e300, 0.25])
        law = OpenLoopLaw(values)
        noise = sample_noise(GRID, LEVY, n_paths, 3)
        fw = euler_forward(COEFFS, law, noise, 1.0)
        one_row(fw.u, (n_paths, GRID.n_steps))
        # the per-path controls as a loop that stores every path's clamped value builds them
        per_path = np.empty((n_paths, GRID.n_steps), order="F")
        x = np.full(n_paths, 1.0)
        for i, t in enumerate(GRID.times()[:-1]):
            per_path[:, i], x = _euler_step(COEFFS, law, noise, i, t, x)
        same_bits(fw.u, per_path)
        same_bits(fw.X[:, -1], x)

    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_closed_form_control_is_one_zero_row(self, n_paths):
        noise = sample_noise(GRID, LEVY, n_paths, 3)
        u = linear_closed_form(LinearCoefficients(b1=-0.4, s0=0.3), noise, 0.7).u
        one_row(u, (n_paths, GRID.n_steps))
        same_bits(u, np.zeros((n_paths, GRID.n_steps)))

    def test_shared_control_allocates_no_per_path_array(self):
        # besides X, one step holds a few state columns of temporaries; a stored
        # (n_paths, N) control would add a hundred columns
        grid = TimeGrid(1.0, 100)
        noise = sample_noise(grid, LEVY, 4000, 3)
        law = OpenLoopLaw(np.full(grid.n_steps, 0.4))
        tracemalloc.start()
        try:
            fw = euler_forward(COEFFS, law, noise, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column = fw.X[:, 0].nbytes
        assert peak < fw.X.nbytes + 16 * column

    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_running_sums_of_the_noise(self, n_paths):
        noise = sample_noise(GRID, LEVY, n_paths, 3)
        nodes = (n_paths, GRID.n_steps + 1)
        step_major(noise.brownian(), nodes)
        same_bits(noise.brownian(), cumulative(noise.dB))
        step_major(noise.compensated_jump_path(), nodes)
        same_bits(noise.compensated_jump_path(), cumulative((noise.compensated_counts() * LEVY.zetas).sum(axis=2)))

    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_closed_form_and_gamma(self, n_paths):
        noise = sample_noise(GRID, LEVY, n_paths, 3)
        nodes = (n_paths, GRID.n_steps + 1)
        lin = LinearCoefficients(b0=0.1, b1=-0.4, s0=0.3, s1=0.2, g0=np.array([0.05, -0.02]), g1=np.array([0.1, 0.2]))
        b0, b1, s0, s1, g0, g1 = lin.broadcast(n_paths, GRID.n_steps, LEVY.n_atoms)
        ups = upsilon(b1, s1, g1, noise)
        lam = LEVY.intensities[None, None, :]
        drift = b0 + ((1.0 / (1.0 + g1) - 1.0) * g0 * lam).sum(axis=2)
        jump = (g0 / (1.0 + g1) * noise.compensated_counts()).sum(axis=2)
        X = linear_closed_form(lin, noise, 0.7).X
        step_major(X, nodes)
        same_bits(X, (0.7 + cumulative(ups[:, :-1] * (drift * GRID.dt + s0 * noise.dB + jump))) / ups)

        rng = np.random.default_rng(n_paths)
        b_x, sigma_x = 0.3 * rng.standard_normal((2, n_paths, GRID.n_steps))
        gamma_x = 0.1 * rng.standard_normal((n_paths, GRID.n_steps, LEVY.n_atoms))
        gamma = gamma_process(b_x, sigma_x, gamma_x, noise)
        step_major(gamma, nodes)
        same_bits(gamma, 1.0 / upsilon(b_x, sigma_x, gamma_x, noise))

    def test_block_copy_keeps_each_paths_draw(self):
        # paths on both sides of a block boundary carry the normals of their own generator
        noise = sample_noise(GRID, LEVY, ROW_BLOCK + 3, 9)
        for k in (0, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 2):
            ref = _path_generator(9, k).standard_normal(GRID.n_steps) * math.sqrt(GRID.dt)
            assert np.array_equal(noise.dB[k], ref), k

    @pytest.mark.parametrize("n_paths", SOLVER_PATH_COUNTS)
    def test_adjoint_triples_and_partials(self, n_paths):
        fw = forward(n_paths)
        part = partials_along(COEFFS, fw)
        step_major(part.gamma_x, (n_paths, GRID.n_steps, LEVY.n_atoms))
        explicit, p_implicit = solve_adjoint(part, COEFFS.g_x(fw.X[:, -1]), fw, cross_check=True)
        step_major(explicit.p, (n_paths, GRID.n_steps + 1))
        # (q, r) are per-step fits, evaluated a step at a time
        q_0, r_0 = explicit.qr_at(0, fw.X[:, 0])
        assert q_0.shape == (n_paths,)
        step_major(r_0, (n_paths, LEVY.n_atoms))
        step_major(p_implicit, (n_paths, GRID.n_steps + 1))
        q, r, _ = extract_qr(explicit.p, fw.noise)
        step_major(q, (n_paths, GRID.n_steps))
        step_major(r, (n_paths, GRID.n_steps, LEVY.n_atoms))

    def test_cross_check_keeps_only_its_p(self):
        # the implicit scheme's q and r live one step at a time: the cross-check
        # adds its p and step-sized temporaries to the sweep's peak, no full-size q or r
        grid = TimeGrid(1.0, 100)
        noise = sample_noise(grid, LEVY, 4000, 3)
        fw = euler_forward(COEFFS, OpenLoopLaw(np.full(grid.n_steps, 0.4)), noise, 1.0)
        part, terminal = partials_along(COEFFS, fw), COEFFS.g_x(fw.X[:, -1])
        peaks = []
        tracemalloc.start()
        try:
            for cross_check in (False, True):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                explicit, p_implicit = solve_adjoint(part, terminal, fw, cross_check=cross_check)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del explicit, p_implicit
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < fw.X.nbytes + fw.u.nbytes / 2

    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_variational_Z(self, n_paths):
        fw = forward(n_paths)
        law = spike_perturb(OpenLoopLaw(np.full(GRID.n_steps, 0.4)), GRID, 0.25, 0.25, 1.5)
        step_major(variational_Z(law, COEFFS, fw), (n_paths, GRID.n_steps + 1))

    @pytest.mark.parametrize("n_paths", SOLVER_PATH_COUNTS)
    def test_constrained_lq_arrays(self, n_paths):
        noise = sample_noise(GRID, LevyMeasure.empty(), n_paths, 4)
        sol = solve_constrained(LqParams(x0=-1.0, coeffs=COEFFS, noise=noise, max_iters=3))
        step_major(sol.u_values, (n_paths, GRID.n_steps))
        step_major(sol.p_hat.p, (n_paths, GRID.n_steps + 1))


def layouts(n_paths, seed, n_cols=101):
    a = np.random.default_rng(seed).standard_normal((n_paths, n_cols))
    return np.ascontiguousarray(a), np.asfortranarray(a)


class TestRowBlockReductions:
    """Bitwise equal results on a C-ordered array and its Fortran-ordered copy."""

    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_l2_norms(self, n_paths):
        (a_c, a_f), (b_c, b_f) = layouts(n_paths, 1), layouts(n_paths, 2)
        # the bits of the plain C-ordered reductions, per path and in the mean
        squares, diff_squares = np.sum(a_c**2, axis=1), np.sum((a_c - b_c) ** 2, axis=1)
        norm = math.sqrt(float(np.mean(squares * GRID.dt)))
        num = math.sqrt(float(np.mean(diff_squares * GRID.dt)))
        for a, b in ((a_c, b_c), (a_f, b_f), (a_c, b_f), (a_f, b_c)):
            assert np.array_equal(_squares_per_path(a), squares)
            assert np.array_equal(_squares_per_path(a, b), diff_squares)
            assert l2_dtP_norm(a, GRID.dt) == norm
            assert relative_l2_dtP(a, b, GRID.dt) == num / l2_dtP_norm(b_c, GRID.dt)

    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_digest(self, n_paths):
        a_c, a_f = layouts(n_paths, 3)
        assert _digest(a_f) == _digest(a_c) == sha256(a_c.tobytes()).hexdigest()

    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_brownian_integral(self, n_paths):
        noise = sample_noise(GRID, LevyMeasure.empty(), n_paths, 5)
        F = bm_integral(GRID, np.linspace(-1.0, 2.0, GRID.n_steps))
        values = [evaluate(F, replace(noise, dB=order(noise.dB))) for order in (np.ascontiguousarray, np.asfortranarray)]
        assert np.array_equal(values[0], values[1])

    @pytest.mark.parametrize("mode", ["brownian", "jump"])
    def test_duality_report(self, mode, monkeypatch):
        # the left side's product is C-ordered: a C-ordered and a step-major
        # integrand with the same values give the same per-path sides, which
        # the report's means alone could hide
        grid = TimeGrid(1.0, 100)
        noise = sample_noise(grid, LEVY, ROW_BLOCK + 3, 8)
        tree = Compose(square_map(), (bm_integral(grid, 1.0),))
        if mode == "brownian":
            values = lambda b: b.brownian()[:, :-1]
        else:
            values = lambda b: b.brownian()[:, :-1, None] * b.levy.zetas
        sides = []
        monkeypatch.setattr(malliavin, "mean_se", lambda v: (sides.append(v), mean_se(v))[1])
        layouts = (np.asfortranarray, np.ascontiguousarray)
        reports = [check_duality(tree, lambda b: order(values(b)), mode, noise) for order in layouts]
        assert reports[0] == reports[1]
        for first, second in zip(sides[:2], sides[2:]):  # (lhs, rhs) per report
            assert np.array_equal(first, second)

    @pytest.mark.parametrize("n_features", [1, 2], ids=["4-column", "10-column"])
    @pytest.mark.parametrize("n_paths", [1_000, 4_001, 20_000, 100_003])
    def test_fit_on_leading_row_blocks(self, n_paths, n_features):
        # a fit evaluated on the leading ROW_BLOCK paths, or two blocks of them, gives the
        # bits of its values on the whole sample, as the solve-bsde CSV assumes of the BLAS
        # product; one row, or a few, may not (measured on several OpenBLAS kernels)
        rng = np.random.default_rng(n_paths + n_features)
        features = rng.standard_normal((n_paths, n_features))
        if n_features == 1:
            features = features[:, 0]  # one state column, as the sweep fits on X(t_i)
        projector = StateProjector(features)
        fit = projector.fit(np.sin(3.0 * rng.standard_normal(n_paths)) + np.reshape(features, (n_paths, -1))[:, 0])
        same_bits(fit(features), fit.fitted)
        for rows in (ROW_BLOCK, 2 * ROW_BLOCK):
            same_bits(fit(features[:rows]), fit.fitted[:rows])

    def test_blocks_cover_the_rows_in_order(self):
        a_c, a_f = layouts(2 * ROW_BLOCK + 5, 6, n_cols=3)
        blocks = list(row_blocks(a_f))
        assert [b.shape[0] for b in blocks] == [ROW_BLOCK, ROW_BLOCK, 5]
        assert all(b.flags.c_contiguous for b in blocks)
        assert np.array_equal(np.concatenate(blocks), a_c)

    def test_no_full_size_temporary(self):
        a_c, a_f = layouts(16 * ROW_BLOCK, 7, n_cols=20)
        b_f = np.asfortranarray(a_c[::-1])
        tracemalloc.start()
        try:
            _digest(a_f)
            relative_l2_dtP(a_f, b_f, GRID.dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a_f.nbytes / 2


class TestCompensatedCounts:
    """The compensated counts are formed one row block or one step at a time and never stored;
    every reader gives the bits of the whole-array form it replaces."""

    GRID = TimeGrid(1.0, 100)
    MEASURES = {1: LevyMeasure.from_pairs([(0.2, 30.0)]), 2: LevyMeasure.from_pairs([(0.2, 30.0), (-0.3, 50.0)])}

    @pytest.mark.parametrize("n_atoms", [1, 2])
    @pytest.mark.parametrize("n_paths", [1, ROW_BLOCK - 1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
    def test_blocked_readers_keep_the_whole_array_bits(self, n_paths, n_atoms, monkeypatch):
        grid, levy = self.GRID, self.MEASURES[n_atoms]
        noise = sample_noise(grid, levy, n_paths, 21)
        lam, dt = levy.intensities, grid.dt
        whole = noise.jump_counts.astype(float) - lam * dt
        same_bits(noise.compensated_counts(), whole)
        for i, k in ((0, 0), (57, n_atoms - 1), (grid.n_steps - 1, 0)):
            same_bits(noise.compensated_column(i, k), whole[:, i, k])
            same_bits(noise.compensated_step(i), whole[:, i])

        psi = np.linspace(-1.0, 2.0, grid.n_steps * n_atoms).reshape(grid.n_steps, n_atoms)
        leaf = jump_integral(grid, levy, psi)
        same_bits(evaluate(leaf, noise), np.einsum("pik,ik->p", whole, psi))
        eta = cumulative(np.einsum("pik,ik->pi", whole, psi))
        memo = {}
        for node in range(grid.n_steps + 1):
            same_bits(_running_column(leaf, noise, node, memo), eta[:, node])
        same_bits(noise.compensated_jump_path(), cumulative((whole * levy.zetas).sum(axis=2)))
        g0, g1 = np.linspace(0.05, -0.02, n_atoms), np.linspace(0.1, 0.2, n_atoms)
        X = linear_closed_form(LinearCoefficients(g0=g0, g1=g1), noise, 0.7).X
        ups = upsilon(0.0, 0.0, np.broadcast_to(g1, whole.shape), noise)
        lin_drift = ((1.0 / (1.0 + g1) - 1.0) * g0 * lam).sum() * dt
        jump = (np.broadcast_to(g0, whole.shape) / (1.0 + np.broadcast_to(g1, whole.shape)) * whole).sum(axis=2)
        same_bits(X, (0.7 + cumulative(ups[:, :-1] * (lin_drift + jump))) / ups)

        # both sides of the duality: the left from one full-size product, the right from
        # E[D F | F_t] = (eta(t) + psi)^2 - eta(t)^2 on the whole-array running path
        sides = []
        monkeypatch.setattr(malliavin, "mean_se", lambda v: (sides.append(v), mean_se(v))[1])
        F = Compose(square_map(), (leaf,))
        phi = np.asfortranarray(noise.brownian()[:, :-1, None] * levy.zetas)
        check_duality(F, lambda b: np.asfortranarray(b.brownian()[:, :-1, None] * b.levy.zetas), "jump", noise)
        lhs = evaluate(F, noise) * np.multiply(phi, whole, out=np.empty(phi.shape)).sum(axis=(1, 2))
        rhs = np.zeros(n_paths)
        for i in range(grid.n_steps):
            for k in range(n_atoms):
                cond = (eta[:, i] + np.full(n_paths, psi[i, k])) ** 2 - eta[:, i] ** 2
                rhs += cond * phi[:, i, k] * lam[k] * dt
        same_bits(sides[0], lhs)
        same_bits(sides[1], rhs)

        if n_paths > ROW_BLOCK:  # a projector needs more paths than its basis has terms
            projector = StateProjector(state_features(noise, 40))
            increment = np.random.default_rng(n_paths).standard_normal(n_paths)
            _, r = fit_qr_step(projector, increment, noise, 40)
            for k in range(n_atoms):
                same_bits(r[:, k], projector.fit(increment * whole[:, 40, k] / (lam[k] * dt)).fitted)

    def test_jump_duality_holds_no_compensated_array(self):
        # Bound on the traced peak of a jump-mode duality check at N = 100 and
        # one atom.  The adaptedness probe copies dB (8N bytes a path) and the
        # counts (2NK bytes a path), and holds them while the integrand runs on
        # the copy.  After it, the largest arrays are the leaf's running path
        # (8(N+1) bytes a path, less than dB and counts together for N >= 4)
        # and a few path-long columns.  Row blocks of the left side's driver
        # and product and of the probe's comparison, with those columns, fit
        # in 4 blocks of ROW_BLOCK paths and N+1 float columns.  A stored
        # (n_paths, N, K) float array of compensated counts would add 8NK
        # bytes a path, as much as dB, and break the bound.
        grid, levy = self.GRID, self.MEASURES[1]
        noise = sample_noise(grid, levy, 20_000, 12)
        F = _FUNCTIONALS["jump_squared"](grid, levy)
        integrand = _integrand("zeta", 0.0, "jump")
        tracemalloc.start()
        try:
            check_duality(F, integrand, "jump", noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < noise.dB.nbytes + noise.jump_counts.nbytes + 4 * ROW_BLOCK * (grid.n_steps + 1) * 8
