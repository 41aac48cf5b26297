import csv
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import qr_on_paths

from smplab import bsde
from smplab.bsde import (
    UNIDENTIFIABLE_RATE,
    _implicit_step,
    extract_qr,
    fit_qr_step,
    hamiltonian_sum,
    l2_dtP_norm,
    relative_l2_dtP,
    solve_adjoint,
)
from smplab.errors import ContractionFailure, InsufficientPaths
from smplab.harness import build_model, parse_config
from smplab.malliavin import (
    Brownian,
    Compose,
    bm_integral,
    conditional_derivative,
    evaluate,
    hm_derivative,
    StateProjector,
    square_map,
)
from smplab.model import LevyMeasure, OpenLoopLaw, TimeGrid, build_lq_coefficients
from smplab.simulate import ROW_BLOCK, PathBundle, euler_forward, gamma_process, sample_noise
from smplab.smp import CoefficientPartials, adjoint_for, partials_along

GRID = TimeGrid(1.0, 100)
NO_JUMPS = LevyMeasure.empty()


def brownian_forward(n_paths, seed, grid=GRID):
    """Forward bundle whose state IS the Brownian path."""
    noise = sample_noise(grid, NO_JUMPS, n_paths, seed)
    return PathBundle(grid=grid, X=noise.brownian(), u=np.zeros((n_paths, grid.n_steps)), noise=noise)


def state_partials(fw, f_x=0.0, b_x=0.0, sigma_x=0.0, gamma_x=0.0):
    """State partials of the given constants or arrays; ``gamma_x`` holds one
    value or one column per atom of the bundle's noise."""
    shape = fw.u.shape
    full = lambda value: np.broadcast_to(np.asarray(value, dtype=float), shape)
    gammas = np.broadcast_to(np.asarray(gamma_x, dtype=float), shape + (fw.noise.levy.n_atoms,))
    return CoefficientPartials(f_x=full(f_x), b_x=full(b_x), sigma_x=full(sigma_x), gamma_x=gammas)


def explicit_adjoint(fw, terminal, **partials):
    explicit, regression = solve_adjoint(state_partials(fw, **partials), terminal, fw)
    assert regression is None
    return explicit


def regression_adjoint(fw, terminal, **partials):
    """The p of the implicit cross-check."""
    return solve_adjoint(state_partials(fw, **partials), terminal, fw, cross_check=True)[1]


def implicit_qr(fw, p):
    """The (q, r) of the implicit scheme, refitted from its p with the fits of
    its steps: one projector on X(t_i), the increment p(t_{i+1}) minus its
    conditional expectation, and ``fit_qr_step``."""
    columns = []
    for i in range(fw.grid.n_steps):
        projector = StateProjector(fw.X[:, i])
        columns.append(fit_qr_step(projector, p[:, i + 1] - projector.fit(p[:, i + 1]).fitted, fw.noise, i))
    return np.stack([q for q, _ in columns], axis=1), np.stack([r for _, r in columns], axis=1)


class TestSolveLinearExplicit:
    """The explicit adjoint of ``solve_adjoint``."""

    def test_constant_terminal(self):
        fw = brownian_forward(2000, 1)
        triple = explicit_adjoint(fw, np.full(2000, 2.5))
        q, r = qr_on_paths(triple, fw.X)
        assert np.allclose(triple.p, 2.5, atol=1e-6)
        assert np.allclose(q, 0.0, atol=1e-6)
        assert r.shape == (2000, 100, 0)

    def test_terminal_consistency_exact(self):
        fw = brownian_forward(500, 2)
        terminal = fw.X[:, -1] ** 3
        triple = explicit_adjoint(fw, terminal)
        assert np.array_equal(triple.p[:, -1], terminal)

    def test_brownian_terminal_martingale(self):
        fw = brownian_forward(50_000, 3)
        triple = explicit_adjoint(fw, fw.X[:, -1])
        assert relative_l2_dtP(triple.p[:, :-1], fw.X[:, :-1], GRID.dt) < 0.03
        q, _ = qr_on_paths(triple, fw.X)
        assert math.sqrt(np.mean((q - 1.0) ** 2)) < 0.03

    def test_lq_adjoint_is_negated_conditional_terminal(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 50_000, 4)
        law = OpenLoopLaw(np.zeros(100))
        triple = adjoint_for(coeffs, euler_forward(coeffs, law, noise, 1.0))
        fw = euler_forward(coeffs, law, noise, 1.0)
        # zero control makes X a martingale: p(t) ~ -X(t)
        assert relative_l2_dtP(triple.p, -fw.X, GRID.dt) < 0.03

    def test_exponential_weight_structure(self):
        # b_x = c, terminal g_x = 1: p(t) = e^{c (T-t)} exactly in expectation
        c = 0.7
        fw = brownian_forward(5000, 5)
        triple = explicit_adjoint(fw, np.ones(5000), b_x=c)
        expected = np.exp(c * (GRID.horizon - GRID.times()))
        assert np.abs(triple.p - expected[None, :]).max() < 1e-8


class TestSolveRegression:
    """The implicit regression cross-check of ``solve_adjoint``."""

    def test_all_zero(self):
        fw = brownian_forward(1000, 6)
        p = regression_adjoint(fw, np.zeros(1000))
        assert np.allclose(p, 0.0, atol=1e-9)
        assert np.allclose(implicit_qr(fw, p)[0], 0.0, atol=1e-9)

    def test_linear_ode_oracle(self):
        # generator a*p with unit terminal: p(0) = e^{aT}
        grid = TimeGrid(1.0, 1000)
        fw = brownian_forward(64, 7, grid)
        fw = PathBundle(grid=grid, X=np.zeros_like(fw.X), u=fw.u, noise=fw.noise)
        a = 0.8
        p = regression_adjoint(fw, np.ones(64), b_x=a)
        assert abs(p[0, 0] - math.exp(a)) < 1e-3

    def test_cross_solver_equivalence_lq(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 30_000, 8)
        law = OpenLoopLaw(np.zeros(100))
        fw = euler_forward(coeffs, law, noise, 1.0)
        explicit, p_implicit = solve_adjoint(partials_along(coeffs, fw), coeffs.g_x(fw.X[:, -1]), fw, cross_check=True)
        assert relative_l2_dtP(p_implicit, explicit.p, GRID.dt) < 0.02

    def test_cross_solver_equivalence_all_channels(self):
        # state-dependent drift, diffusion, and jump coefficient make every
        # adjoint channel active: generator coupling through (p, q, r) and a
        # stochastic weight process
        from smplab.model import ControlledCoefficients, like

        lq = build_lq_coefficients(0.1)
        coeffs = ControlledCoefficients(
            **{
                **lq.__dict__,
                "b": lambda t, x, u: 0.2 * np.asarray(x, dtype=float),
                "b_x": lambda t, x, u: like(0.2, x, u),
                "b_u": lambda t, x, u: like(0.0, x, u),
                "sigma": lambda t, x, u: 0.3 * np.asarray(x, dtype=float) + 0.1,
                "sigma_x": lambda t, x, u: like(0.3, x, u),
                "gamma": lambda t, x, u, z: z * np.asarray(x, dtype=float),
                "gamma_x": lambda t, x, u, z: like(z, x, u),
                "f": lambda t, x, u: like(0.0, x, u),
                "f_x": lambda t, x, u: like(0.0, x, u),
                "f_u": lambda t, x, u: like(0.0, x, u),
            }
        )
        levy = LevyMeasure.from_pairs([(-0.1, 0.5)])
        noise = sample_noise(GRID, levy, 30_000, 55)
        law = OpenLoopLaw(np.zeros(100))
        fw = euler_forward(coeffs, law, noise, 1.0)
        explicit, p_implicit = solve_adjoint(partials_along(coeffs, fw), coeffs.g_x(fw.X[:, -1]), fw, cross_check=True)
        assert relative_l2_dtP(p_implicit, explicit.p, GRID.dt) < 0.05
        # both channels carry signal in this model
        q, r = qr_on_paths(explicit, fw.X)
        assert math.sqrt(float(np.mean(q**2))) > 0.1
        assert math.sqrt(float(np.mean(r**2))) > 0.05

    def test_terminal_exact(self):
        fw = brownian_forward(800, 9)
        p = regression_adjoint(fw, -fw.X[:, -1])
        assert np.array_equal(p[:, -1], -fw.X[:, -1])

    def test_contraction_failure_raised(self):
        fw = brownian_forward(200, 10)
        # b_x dt = 1: the implicit step p_i (1 - b_x dt) = ... has no stable solution
        with pytest.raises(ContractionFailure, match="step 99"):
            regression_adjoint(fw, np.ones(200), b_x=100.0)

    @pytest.mark.parametrize(
        "atoms, partials",
        [((), {"f_x": 1.0, "b_x": -250.0}), (((0.2, 2.0),), {"f_x": 0.5, "b_x": 0.2, "sigma_x": 0.3, "gamma_x": 0.4})],
        ids=["stiff", "every-channel"],
    )
    def test_implicit_equation_solved_exactly(self, atoms, partials):
        # b_x dt = -2.5 in the stiff case, where iterating the step from the
        # conditional expectation diverges
        noise = sample_noise(GRID, LevyMeasure.from_pairs(atoms), 400, 10)
        X = noise.brownian() + noise.compensated_jump_path()
        fw = PathBundle(grid=GRID, X=X, u=np.zeros((400, GRID.n_steps)), noise=noise)
        part = state_partials(fw, **partials)
        p = regression_adjoint(fw, X[:, -1], **partials)
        assert np.all(np.isfinite(p))
        q, r = implicit_qr(fw, p)
        bound = 1e-12 * np.max(np.abs(p))
        for i in range(GRID.n_steps):
            cond = StateProjector(X[:, i]).fit(p[:, i + 1]).fitted
            h = hamiltonian_sum(
                part.f_x[:, i], part.b_x[:, i], part.sigma_x[:, i], part.gamma_x[:, i].T,
                p[:, i], q[:, i], r[:, i], noise.levy,
            )
            assert np.max(np.abs(p[:, i] - cond - h * GRID.dt)) <= bound

    def test_insufficient_paths(self):
        fw = brownian_forward(5, 11)
        with pytest.raises(InsufficientPaths):
            regression_adjoint(fw, fw.X[:, -1])


class TestCrossCheckThread:
    """The implicit cross-check in a helper thread beside the explicit sweep (two CPUs and a
    floor of n_paths * N path-steps) against the one-thread sweep (one CPU)."""

    n_paths = 600
    levy = LevyMeasure.from_pairs([(0.2, 2.0), (-0.1, 3.0)])

    def forward(self):
        noise = sample_noise(GRID, self.levy, self.n_paths, 23)
        X = 0.5 + noise.brownian() + noise.compensated_jump_path()
        return PathBundle(grid=GRID, X=X, u=np.zeros((self.n_paths, GRID.n_steps)), noise=noise)

    def solve(self, fork_seams, monkeypatch, cpus, fw, **partials):
        """solve_adjoint with the cross-check; ``self.threads`` collects the threads its implicit steps ran in."""
        set_seams, forks = fork_seams
        set_seams(cpus, self.n_paths * GRID.n_steps)
        self.threads = set()

        def recording_step(*args):
            self.threads.add(threading.current_thread())
            _implicit_step(*args)

        monkeypatch.setattr(bsde, "_implicit_step", recording_step)
        before = threading.active_count()
        try:
            return solve_adjoint(state_partials(fw, **partials), fw.X[:, -1] ** 2, fw, cross_check=True)
        finally:
            assert threading.active_count() == before and forks == []

    def assert_helper_thread(self):
        assert len(self.threads) == 1 and threading.current_thread() not in self.threads

    def test_bits_of_the_one_thread_sweep(self, fork_seams, monkeypatch):
        fw = self.forward()
        X = fw.X[:, :-1]
        partials = {"f_x": 0.5 * X, "b_x": 0.3 * np.tanh(X), "sigma_x": 0.2 + 0.1 * X, "gamma_x": (0.15, -0.05)}
        threaded, p_threaded = self.solve(fork_seams, monkeypatch, 2, fw, **partials)
        self.assert_helper_thread()
        serial, p_serial = self.solve(fork_seams, monkeypatch, 1, fw, **partials)
        assert self.threads == {threading.current_thread()}
        assert np.array_equal(threaded.p, serial.p)
        for a, b in zip(qr_on_paths(threaded, fw.X), qr_on_paths(serial, fw.X)):
            assert np.array_equal(a, b)
        r = qr_on_paths(serial, fw.X)[1]
        assert np.any(r[:, :, 0] != 0.0) and np.any(r[:, :, 1] != 0.0)
        every_fit = lambda triple: triple.p_fits + triple.q_fits + sum(triple.r_fits, ())
        for a, b in zip(every_fit(threaded), every_fit(serial)):
            assert np.array_equal(a.coeffs, b.coeffs) and a.rank_deficient == b.rank_deficient
            assert np.array_equal(a.feature_mean, b.feature_mean) and np.array_equal(a.feature_scale, b.feature_scale)
        assert np.array_equal(p_threaded, p_serial)

    def test_contraction_failure_raised_from_the_thread(self, fork_seams, monkeypatch):
        # as in TestSolveRegression.test_contraction_failure_raised: b_x dt = 1 on the first implicit step
        fw = self.forward()
        with pytest.raises(ContractionFailure, match="step 99"):
            self.solve(fork_seams, monkeypatch, 2, fw, b_x=100.0)
        self.assert_helper_thread()


class TestExtractQr:
    def test_unit_brownian_integrand(self):
        noise = sample_noise(GRID, NO_JUMPS, 40_000, 12)
        p = noise.brownian()
        q, r, dead = extract_qr(p, noise)
        assert math.sqrt(np.mean((q - 1.0) ** 2)) < 0.02
        assert r.shape == (40_000, 100, 0)
        assert dead == ()

    def test_constant_process(self):
        noise = sample_noise(GRID, NO_JUMPS, 2000, 13)
        p = np.ones((2000, 101))
        q, r, _ = extract_qr(p, noise)
        assert np.allclose(q, 0.0, atol=1e-9)

    def test_jump_integrand_recovered(self):
        grid = TimeGrid(1.0, 50)
        levy = LevyMeasure.from_pairs([(0.2, 2.0)])
        noise = sample_noise(grid, levy, 40_000, 14)
        p = noise.compensated_jump_path()
        q, r, dead = extract_qr(p, noise)
        rel_r = math.sqrt(np.mean((r[:, :, 0] - 0.2) ** 2)) / 0.2
        assert rel_r < 0.15
        assert math.sqrt(np.mean(q**2)) < 0.05
        assert dead == ()

    def test_multi_atom_identification(self):
        grid = TimeGrid(1.0, 50)
        levy = LevyMeasure.from_pairs([(0.2, 2.0), (-0.1, 4.0)])
        noise = sample_noise(grid, levy, 60_000, 19)
        p = noise.compensated_jump_path()
        q, r, dead = extract_qr(p, noise)
        assert dead == ()
        for k, zeta in enumerate(levy.zetas):
            rel = math.sqrt(np.mean((r[:, :, k] - zeta) ** 2)) / abs(zeta)
            assert rel < 0.2
        assert math.sqrt(np.mean(q**2)) < 0.05

    def test_negligible_intensity_flagged(self):
        levy = LevyMeasure.from_pairs([(0.2, 1e-12)])
        noise = sample_noise(GRID, levy, 1000, 15)
        p = noise.brownian()
        q, r, dead = extract_qr(p, noise)
        assert dead == (0,)
        assert np.all(r == 0.0)

    def test_martingale_residual_zero_driver(self):
        # with zero driver the residual p - int q dB - int r dN-compensated
        # has increment means within 5 standard errors of zero; the band is
        # taken at the scale of the p increments (the regression-compensated
        # residual is nearly deterministic, so its own spread is not a
        # meaningful noise floor)
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 30_000, 16)
        law = OpenLoopLaw(np.zeros(100))
        fw = euler_forward(coeffs, law, noise, 1.0)
        triple = adjoint_for(coeffs, fw)
        d_p = np.diff(triple.p, axis=1)
        residual = d_p - qr_on_paths(triple, fw.X)[0] * noise.dB
        mean = residual.mean(axis=0)
        se = d_p.std(axis=0, ddof=1) / math.sqrt(residual.shape[0])
        assert np.all(np.abs(mean) <= 5 * se)

    def test_theorem_surrogate_matches_symbolic(self):
        # p(t) = B(t)^2 - t: extracted q ~ 2B(t) and the symbolic conditional
        # E[D_t p(T) | F_t] from the functional calculus agrees
        noise = sample_noise(GRID, NO_JUMPS, 50_000, 17)
        B = noise.brownian()
        p = B**2 - GRID.times()[None, :]
        q, _, _ = extract_qr(p, noise)
        truth = 2.0 * B[:, :-1]
        assert math.sqrt(np.mean((q - truth) ** 2) / np.mean(truth**2)) < 0.05
        F = Compose(square_map(), (bm_integral(GRID, 1.0),))
        sym = np.column_stack([conditional_derivative(F, noise, i, "brownian") for i in range(0, 100, 10)])
        reg = q[:, 0:100:10]
        assert math.sqrt(np.mean((sym - reg) ** 2) / np.mean(sym**2)) < 0.08


class TestAdjointCsv:
    def test_header_and_terminal_row(self, run_ini):
        # adjoint.csv as a solve-bsde run writes it, with two atoms
        sections = "[grid]\nn_steps = 4\n[mc]\nn_paths = 200\nseed = 18\n[model]\natoms = 0.2:1.0; -0.1:0.5\n"
        out = run_ini("solve-bsde", sections + "[output]\ncsv_paths = 3\n")
        rows = list(csv.reader(open(out / "adjoint.csv", newline="")))
        assert rows[0] == ["path_id", "step", "t", "p", "q", "r_atom0", "r_atom1"]
        assert len(rows) == 1 + 3 * 5
        assert rows[5][1] == "4" and rows[5][4:] == ["", "", ""]
        # the terminal node value is p(T) = g_x(X(T)) = -X(T) of the run's paths, at 17 digits
        noise = sample_noise(TimeGrid(1.0, 4), LevyMeasure.from_pairs([(0.2, 1.0), (-0.1, 0.5)]), 200, 18)
        fw = euler_forward(build_lq_coefficients(0.1), OpenLoopLaw(np.zeros(4)), noise, 1.0)
        assert [rows[5 * j + 5][3] for j in range(3)] == [format(-fw.X[j, -1], ".17g") for j in range(3)]

    @pytest.mark.parametrize("k", [1, 3])
    def test_q_and_r_are_the_sweeps_values(self, run_ini, k):
        # more paths than a row block: each step's fits are evaluated on the leading block
        # and give, for the first k paths, the bits of the fits on the sweep's full column
        n_paths, levy = ROW_BLOCK + 200, LevyMeasure.from_pairs([(0.2, 1.0), (-0.1, 0.5)])
        sections = f"[grid]\nn_steps = 4\n[mc]\nn_paths = {n_paths}\nseed = 19\n[model]\natoms = 0.2:1.0; -0.1:0.5\n"
        out = run_ini("solve-bsde", sections + f"[output]\ncsv_paths = {k}\n")
        rows = list(csv.reader(open(out / "adjoint.csv", newline="")))
        coeffs = build_lq_coefficients(0.1)
        fw = euler_forward(coeffs, OpenLoopLaw(np.zeros(4)), sample_noise(TimeGrid(1.0, 4), levy, n_paths, 19), 1.0)
        q, r = qr_on_paths(adjoint_for(coeffs, fw), fw.X)
        assert np.any(q[:k] != 0.0) and np.all(r[:k] != 0.0)
        expected = [[format(v, ".17g") for v in (q[j, i], *r[j, i])] for j in range(k) for i in range(4)]
        assert [row[4:] for row in rows[1:] if row[1] != "4"] == expected


    @pytest.mark.parametrize("n_paths, k", [(300, 3), (ROW_BLOCK + 200, 3), (ROW_BLOCK + 200, ROW_BLOCK + 1)])
    def test_q_and_r_evaluated_on_whole_row_blocks(self, run_ini, monkeypatch, n_paths, k):
        # on fewer rows than a whole number of row blocks a fit's product may take another
        # BLAS kernel path than on the full column; every qr_at call of a run gets the
        # run's n_paths rows or a whole number of ROW_BLOCKs, on every BLAS kernel
        rows, qr_at = [], bsde.AdjointTriple.qr_at

        def counting(triple, step, states):
            rows.append(len(states))
            return qr_at(triple, step, states)

        monkeypatch.setattr(bsde.AdjointTriple, "qr_at", counting)
        sections = f"[grid]\nn_steps = 4\n[mc]\nn_paths = {n_paths}\nseed = 19\n[model]\natoms = 0.2:1.0\n"
        run_ini("solve-bsde", sections + f"[output]\ncsv_paths = {k}\n")
        assert len(rows) == 4
        assert all(n == n_paths or n % ROW_BLOCK == 0 for n in rows), rows


class TestChosenSteps:
    """``solve_adjoint`` with ``steps`` fits the chosen steps and their
    successors only, with the bits of the full sweep."""

    STEPS = (0, 37, 38, 99)  # the first and last step, and a step whose successor is chosen too

    @staticmethod
    def solve_bsde_model():
        """The model of configs/solve_bsde.ini (b_x, sigma_x and gamma_x nonzero, so
        Gamma is live; one atom) under the zero control, on fewer paths."""
        coeffs, levy, x0 = build_model(parse_config(Path(__file__).resolve().parents[1] / "configs" / "solve_bsde.ini"))
        return coeffs, euler_forward(coeffs, OpenLoopLaw(np.zeros(100)), sample_noise(GRID, levy, 2000, 77), x0)

    @staticmethod
    def lq_model():
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, LevyMeasure.from_pairs([(0.2, 1.0)]), 2000, 78)
        return coeffs, euler_forward(coeffs, OpenLoopLaw(np.full(100, 0.3)), noise, 1.0)

    @staticmethod
    def assert_same_fit(a, b):
        assert np.array_equal(a.coeffs, b.coeffs) and a.rank_deficient == b.rank_deficient
        assert np.array_equal(a.feature_mean, b.feature_mean) and np.array_equal(a.feature_scale, b.feature_scale)

    @pytest.mark.parametrize("model", ["solve_bsde", "lq"])
    def test_chosen_steps_keep_the_full_sweeps_bits(self, model):
        coeffs, fw = getattr(self, f"{model}_model")()
        part, terminal = partials_along(coeffs, fw), coeffs.g_x(fw.X[:, -1])
        assert model == "lq" or np.any(part.b_x) and np.any(part.sigma_x) and np.any(part.gamma_x)
        full, _ = solve_adjoint(part, terminal, fw)
        chosen, _ = solve_adjoint(part, terminal, fw, steps=set(self.STEPS))
        successors = {1, 39}
        for i in range(GRID.n_steps):
            if i in self.STEPS:
                for a, b in zip(chosen.qr_at(i, fw.X[:, i]), full.qr_at(i, fw.X[:, i])):
                    assert np.array_equal(a, b), i
                self.assert_same_fit(chosen.q_fits[i], full.q_fits[i])
                self.assert_same_fit(chosen.r_fits[i][0], full.r_fits[i][0])
            else:
                assert chosen.q_fits[i] is None and chosen.r_fits[i] is None, i
            if i in self.STEPS or i in successors:
                assert np.array_equal(chosen.p[:, i], full.p[:, i]), i
                self.assert_same_fit(chosen.p_fits[i], full.p_fits[i])
            else:
                assert np.all(np.isnan(chosen.p[:, i])) and chosen.p_fits[i] is None, i
        assert np.array_equal(chosen.p[:, -1], full.p[:, -1])
        assert chosen.p.shape == full.p.shape and chosen.p.flags.f_contiguous

    def test_steps_refused_with_the_cross_check(self):
        coeffs, fw = self.lq_model()
        with pytest.raises(ValueError, match="cross-check needs every step"):
            solve_adjoint(partials_along(coeffs, fw), coeffs.g_x(fw.X[:, -1]), fw, cross_check=True, steps={3})

    def test_a_step_outside_the_set_cannot_be_read(self):
        coeffs, fw = self.lq_model()
        triple = adjoint_for(coeffs, fw, steps={10})
        triple.qr_at(10, fw.X[:, 10])
        # step 11 is fitted for p alone, as the successor whose p step 10's (q, r) targets read
        for i in (9, 11, 12):
            with pytest.raises(ValueError, match=f"step {i} has no \\(q, r\\) fits"):
                triple.qr_at(i, fw.X[:, i])


class TestNorms:
    def test_l2_dtP_norm(self):
        a = np.ones((4, 10))
        assert l2_dtP_norm(a, 0.1) == pytest.approx(1.0)

    def test_relative_distance(self):
        a = np.full((4, 10), 1.1)
        b = np.ones((4, 10))
        assert relative_l2_dtP(a, b, 0.1) == pytest.approx(0.1, rel=1e-9)


class TestSharedProjectorBitContract:
    """Every solver fits p, q and r_k against one projector per step; each fit
    must equal, bit for bit, the same target fitted alone."""

    grid = TimeGrid(1.0, 10)
    # one live atom and one whose step rate falls below UNIDENTIFIABLE_RATE
    levy = LevyMeasure.from_pairs([(0.2, 2.0), (-0.1, 1e-12)])

    def bundle(self):
        assert self.levy.intensities[1] * self.grid.dt < UNIDENTIFIABLE_RATE <= self.levy.intensities[0] * self.grid.dt
        noise = sample_noise(self.grid, self.levy, 400, 21)
        X = 0.5 + noise.brownian() + noise.compensated_jump_path()
        return PathBundle(grid=self.grid, X=X, u=np.zeros((400, self.grid.n_steps)), noise=noise)

    def fit_qr_alone(self, increment, feats, noise, i, q, r):
        dt = self.grid.dt
        q[:, i] = StateProjector(feats).fit(increment * noise.dB[:, i] / dt).fitted
        rate = self.levy.intensities[0] * dt
        r[:, i, 0] = StateProjector(feats).fit(increment * noise.compensated_counts()[:, i, 0] / rate).fitted

    def empty_triple(self):
        n, N = 400, self.grid.n_steps
        return np.empty((n, N + 1)), np.empty((n, N)), np.zeros((n, N, 2))

    def explicit_reference(self, fw, part, terminal):
        """The Gamma-weighted tail, with Gamma computed even where it is exactly 1."""
        noise, dt, N = fw.noise, self.grid.dt, self.grid.n_steps
        p, q, r = self.empty_triple()
        gam = gamma_process(part.b_x, part.sigma_x, part.gamma_x, noise)
        p[:, N] = terminal
        tail = gam[:, N] * terminal
        for i in range(N - 1, -1, -1):
            tail = tail + gam[:, i] * part.f_x[:, i] * dt
            p[:, i] = StateProjector(fw.X[:, i]).fit(tail / gam[:, i]).fitted
            self.fit_qr_alone(p[:, i + 1] - p[:, i], fw.X[:, i], noise, i, q, r)
        return p, q, r

    def regression_reference(self, fw, part, terminal):
        """The implicit step for b_x = 0: the generator
        f_x + b_x p + sigma_x q + sum_k gamma_x,k r_k lam_k is then free of p,
        so p_i is the conditional expectation plus the generator at it times dt."""
        noise, dt, N = fw.noise, self.grid.dt, self.grid.n_steps
        assert not np.any(part.b_x)
        lam = self.levy.intensities
        p, q, r = self.empty_triple()
        p[:, N] = terminal
        for i in range(N - 1, -1, -1):
            cond = StateProjector(fw.X[:, i]).fit(p[:, i + 1]).fitted
            self.fit_qr_alone(p[:, i + 1] - cond, fw.X[:, i], noise, i, q, r)
            h = part.f_x[:, i] + part.b_x[:, i] * cond + part.sigma_x[:, i] * q[:, i]
            for k in range(self.levy.n_atoms):
                h = h + part.gamma_x[:, i, k] * r[:, i, k] * lam[k]
            p[:, i] = cond + h * dt
        return p, q, r

    def assert_triple(self, triple, reference, X):
        # (q, r) are kept as fits without training values, and the fits evaluated on the
        # sweep's own state columns give the bits of the values fitted alone
        p, q, r = reference
        assert np.array_equal(triple.p, p)
        q_paths, r_paths = qr_on_paths(triple, X)
        assert np.array_equal(q_paths, q)
        assert np.array_equal(r_paths, r)
        assert np.any(r[:, :, 0] != 0.0) and np.all(r[:, :, 1] == 0.0)
        assert triple.unidentifiable_atoms == (1,)
        assert all(fit.fitted is None for fit in triple.q_fits)
        assert all(fits[0].fitted is None and fits[1] is None for fits in triple.r_fits)

    def test_solve_linear_explicit(self):
        fw = self.bundle()
        N = self.grid.n_steps
        terminal = fw.X[:, -1] ** 2
        # nonzero b_x, sigma_x, gamma_x, then all-zero ones, where the solver skips Gamma
        for scale in (1.0, 0.0):
            part = state_partials(
                fw, f_x=0.5 * fw.X[:, :-1], b_x=0.3 * scale, sigma_x=0.2 * scale, gamma_x=(0.1 * scale, 0.0)
            )
            triple, regression = solve_adjoint(part, terminal, fw)
            assert regression is None
            assert scale or np.all(gamma_process(part.b_x, part.sigma_x, part.gamma_x, fw.noise) == 1.0)
            p, _, _ = reference = self.explicit_reference(fw, part, terminal)
            self.assert_triple(triple, reference, fw.X)
            assert [fit.fitted for fit in triple.p_fits] == [None] * N
            assert np.array_equal(np.column_stack([fit(fw.X[:, i]) for i, fit in enumerate(triple.p_fits)]), p[:, :N])

    def test_solve_regression(self):
        fw = self.bundle()
        # the generator 0.5 q + 0.3 r_0, with 0.3 = gamma_x lam_0
        part = state_partials(fw, sigma_x=0.5, gamma_x=(0.15, 0.0))
        terminal = fw.X[:, -1] ** 2
        _, p_implicit = solve_adjoint(part, terminal, fw, cross_check=True)
        p, q, r = self.regression_reference(fw, part, terminal)
        assert np.array_equal(p_implicit, p)
        # the steps fitted the reference's (q, r) columns: refitted from p they agree bit for bit
        q_steps, r_steps = implicit_qr(fw, p_implicit)
        assert np.array_equal(q_steps, q)
        assert np.array_equal(r_steps, r)
        assert np.any(r[:, :, 0] != 0.0) and np.all(r[:, :, 1] == 0.0)

    def test_cross_check_returns_both(self):
        fw = self.bundle()
        part = state_partials(fw, f_x=0.5 * fw.X[:, :-1], sigma_x=0.5, gamma_x=(0.15, 0.0))
        terminal = fw.X[:, -1] ** 2
        explicit, p_implicit = solve_adjoint(part, terminal, fw, cross_check=True)
        self.assert_triple(explicit, self.explicit_reference(fw, part, terminal), fw.X)
        assert np.array_equal(p_implicit, self.regression_reference(fw, part, terminal)[0])

    def test_extract_qr(self):
        fw = self.bundle()
        noise = fw.noise
        q_out, r_out, dead = extract_qr(fw.X, noise)

        _, q, r = self.empty_triple()
        features = np.stack([noise.brownian(), noise.compensated_jump_path()], axis=2)
        d_p = fw.X[:, 1:] - fw.X[:, :-1]
        for i in range(self.grid.n_steps):
            self.fit_qr_alone(d_p[:, i], features[:, i], noise, i, q, r)
        assert np.array_equal(q_out, q)
        assert np.array_equal(r_out, r)
        assert dead == (1,)
