import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import qr_on_paths

from smplab import lqsolver
from smplab.bsde import l2_dtP_norm, relative_l2_dtP
from smplab.harness import _plain
from smplab.lqsolver import (
    LqParams,
    compare_to_unconstrained,
    solve_constrained,
    unconstrained_feedback_law,
)
from smplab.malliavin import StateProjector, mean_se
from smplab.model import LevyMeasure, OpenLoopLaw, TimeGrid, build_lq_coefficients, polynomial_coefficients
from smplab.simulate import euler_forward, sample_noise
from smplab.smp import adjoint_for, check_necessary_condition, performance_values

GRID = TimeGrid(1.0, 100)
NO_JUMPS = LevyMeasure.empty()


def params(levy=NO_JUMPS, grid=GRID, n_paths=20_000, seed=201, **overrides):
    base = dict(x0=1.0, coeffs=build_lq_coefficients(0.1), noise=sample_noise(grid, levy, n_paths, seed))
    base.update(overrides)
    return LqParams(**base)


class TestClosedFormUnconstrained:
    def test_zero_state(self):
        law = unconstrained_feedback_law(GRID)
        assert all(np.all(law.control_at(i, t, np.zeros(3)) == 0.0) for i, t in enumerate(GRID.times()[:-1]))

    def test_pinned_values(self):
        grid = TimeGrid(1.0, 2)
        law = unconstrained_feedback_law(grid)
        # at t = 0: u = -x / (T + 1 - 0)
        assert float(law.control_at(0, 0.0, np.array([1.0]))[0]) == pytest.approx(-0.5)
        # at the horizon: -(-2) / (T + 1 - T) = 2
        assert float(law.control_at(1, grid.horizon, np.array([-2.0]))[0]) == pytest.approx(2.0)

    def test_denominator_never_small(self):
        t = GRID.times()[:-1]
        assert np.all(GRID.horizon + 1.0 - t >= 1.0)


class TestSolveConstrained:
    def test_degenerate_zero_problem(self):
        p = params(x0=0.0, coeffs=build_lq_coefficients(0.0), n_paths=64, tol=1e-10)
        sol = solve_constrained(p)
        assert sol.converged
        assert len(sol.residual_history) == 1
        assert np.all(sol.u_values == 0.0)
        assert np.allclose(sol.p_hat.p, 0.0, atol=1e-12)

    def test_binding_regime(self):
        sol = solve_constrained(params())
        assert sol.converged
        assert l2_dtP_norm(sol.u_values, GRID.dt) < 0.05
        assert np.all(sol.u_values >= 0.0)
        report = compare_to_unconstrained(sol, params())
        assert report.binding_fraction > 0.8

    def test_inactive_regime_matches_closed_form(self):
        p = params(x0=-1.0, seed=202)
        sol = solve_constrained(p)
        assert sol.converged
        report = compare_to_unconstrained(sol, p)
        assert report.control_distance < 0.05
        assert report.binding_fraction < 0.10

    def test_deterministic_limit(self):
        grid = TimeGrid(1.0, 1000)
        p = params(x0=-1.0, coeffs=build_lq_coefficients(0.0), grid=grid, n_paths=64, seed=203, tol=1e-8)
        sol = solve_constrained(p)
        assert sol.converged
        report = compare_to_unconstrained(sol, p)
        assert report.control_distance < 1e-3
        # fixed point of u = max(-(x0 + T u), 0) at x0 = -1, T = 1
        assert np.allclose(sol.u_values, 0.5, atol=1e-6)

    def test_feasibility_and_fixed_point(self):
        p = params(x0=-1.0, seed=204)
        sol = solve_constrained(p)
        assert np.all(sol.u_values >= 0.0)
        assert sol.fbsde_residual <= 2 * p.tol

    def test_improvement_over_zero_control(self):
        p = params(x0=-1.0, seed=205)
        sol = solve_constrained(p)
        coeffs = p.coeffs
        noise = p.noise
        j_hat = performance_values(coeffs, euler_forward(coeffs, OpenLoopLaw(sol.u_values), noise, p.x0))
        j_zero = performance_values(coeffs, euler_forward(coeffs, OpenLoopLaw(np.zeros(GRID.n_steps)), noise, p.x0))
        diff = j_hat - j_zero
        se = diff.std(ddof=1) / math.sqrt(diff.shape[0])
        assert diff.mean() >= -3 * se

    def test_complementarity(self):
        p = params(x0=-1.0, seed=206)
        sol = solve_constrained(p)
        active = sol.u_values > p.tol
        gap = np.abs(sol.u_values - sol.p_hat.p[:, : GRID.n_steps])[active]
        scale = math.sqrt(float(np.mean(sol.p_hat.p[:, : GRID.n_steps][active] ** 2)))
        assert math.sqrt(float(np.mean(gap**2))) <= 0.05 * scale

    def test_unconverged_flagged_not_raised(self):
        p = params(x0=-1.0, max_iters=1, tol=1e-12, seed=207, n_paths=2000)
        sol = solve_constrained(p)
        assert not sol.converged
        assert len(sol.residual_history) == 1

    def test_jump_model_runs(self):
        levy = LevyMeasure.from_pairs([(-0.1, 0.5)])
        p = params(levy=levy, x0=-1.0, seed=208, n_paths=10_000)
        sol = solve_constrained(p)
        assert sol.converged
        report = compare_to_unconstrained(sol, p)
        assert report.control_distance < 0.10

    def test_optimality_cross_check(self):
        p = params(x0=1.0, seed=209)
        sol = solve_constrained(p)
        coeffs = p.coeffs
        noise = p.noise
        law = OpenLoopLaw(sol.u_values)
        verdict = check_necessary_condition(law, coeffs, noise, p.x0, [0.25, 0.75], [0.0, 1.0], [0.2, 0.1])
        assert verdict.passed

    def test_out_of_sample_feedback_law(self):
        p = params(x0=-1.0, seed=210)
        sol = solve_constrained(p)
        coeffs = p.coeffs
        fresh = sample_noise(GRID, p.noise.levy, 5000, 999)
        fw = euler_forward(coeffs, sol.feedback_law(), fresh, p.x0)
        star = euler_forward(coeffs, unconstrained_feedback_law(GRID), fresh, p.x0)
        assert relative_l2_dtP(fw.u, star.u, GRID.dt) < 0.05

    def test_final_adjoint_is_adjoint_for(self):
        # the returned adjoint and its feedback fits are the explicit solver's
        # on the returned control and the run's noise, bit for bit
        levy = LevyMeasure.from_pairs([(-0.1, 0.5)])
        p = params(levy=levy, x0=-1.0, seed=212, n_paths=2000)
        sol = solve_constrained(p)
        coeffs = p.coeffs
        fw = euler_forward(coeffs, OpenLoopLaw(sol.u_values), p.noise, p.x0)
        triple = adjoint_for(coeffs, fw)
        assert np.array_equal(sol.p_hat.p, triple.p)
        (q, r), (q_hat, r_hat) = qr_on_paths(triple, fw.X), qr_on_paths(sol.p_hat, fw.X)
        assert np.array_equal(q_hat, q) and np.array_equal(r_hat, r)
        assert np.any(r != 0.0)
        assert len(sol.p_hat.p_fits) == len(triple.p_fits) == GRID.n_steps
        for mine, theirs in zip(sol.p_hat.p_fits, triple.p_fits):
            assert np.array_equal(mine.coeffs, theirs.coeffs)
            assert mine.fitted is None

    def test_binding_fraction_reads_the_control_set(self):
        # controls in [-0.5, inf): the constraint binds where p < -0.5, not where p < 0
        coeffs = polynomial_coefficients(
            b_u=1.0, sigma_poly=(0.1,), u_cost=1.0, g_poly=(0.0, 0.0, -0.5), control_set=(-0.5, math.inf)
        )
        p = params(coeffs=coeffs, grid=TimeGrid(1.0, 50), n_paths=4000)
        sol = solve_constrained(p)
        adjoint = sol.p_hat.p[:, :50]
        report = compare_to_unconstrained(sol, p)
        assert report.binding_fraction == float(np.mean(adjoint < -0.5))
        assert 0.5 < report.binding_fraction < 0.7
        assert np.all(adjoint < 0.0)

    def test_rejects_bad_iteration_parameters(self):
        with pytest.raises(ValueError):
            params(tol=0.0)
        with pytest.raises(ValueError):
            params(damping=1.5)
        with pytest.raises(ValueError):
            params(max_iters=0)

    def test_rejects_a_model_its_update_does_not_solve(self):
        # b_u = 2: the Hamiltonian maximizer is clamp(2 p), not clamp(p)
        coeffs = polynomial_coefficients(
            b_u=2.0, sigma_poly=(0.1,), u_cost=1.0, g_poly=(0.0, 0.0, -0.5), control_set=(0.0, math.inf)
        )
        with pytest.raises(ValueError, match="b_u"):
            params(x0=-1.0, coeffs=coeffs, grid=TimeGrid(1.0, 50), n_paths=100)

    @pytest.mark.parametrize("sigma, scale", [(0.0, 1.0), (0.1, 0.5), (0.4, 2.0), (1.0, -0.3)])
    def test_accepts_every_lq_model(self, sigma, scale):
        levy = LevyMeasure.from_pairs([(0.2, 1.0), (-0.1, 0.5)])
        p = params(levy=levy, coeffs=build_lq_coefficients(sigma, scale), n_paths=100)
        assert p.coeffs.control_set == (0.0, math.inf)


class TestDumps:
    def test_files_roundtrip(self, run_ini):
        # the files a solve-lq run writes, against the solver run on the same inputs
        out = run_ini("solve-lq", "[mc]\nn_paths = 2000\nseed = 211\n")
        p = params(n_paths=2000, seed=211)
        sol = solve_constrained(p)
        rows = list(csv.reader(open(out / "feedback_coefficients.csv", newline="")))
        assert rows[0] == ["step", "t", "feature_mean", "feature_scale", "c0", "c1", "c2", "c3"]
        assert len(rows) == 1 + GRID.n_steps
        fit = sol.p_hat.p_fits[7]
        cells = [GRID.times()[7], fit.feature_mean[0], fit.feature_scale[0], *fit.coeffs]
        assert rows[8] == ["7"] + [format(v, ".17g") for v in cells]
        res = list(csv.reader(open(out / "residuals.csv", newline="")))
        assert res[0] == ["iteration", "residual"]
        assert res[1:] == [[str(i), format(r, ".17g")] for i, r in enumerate(sol.residual_history)]
        blob = json.load(open(out / "comparison.json"))
        assert blob == _plain(compare_to_unconstrained(sol, p))
        assert set(blob) == {
            "control_distance",
            "j_constrained",
            "j_constrained_se",
            "j_unconstrained",
            "j_unconstrained_se",
            "binding_fraction",
        }


class TestSweep:
    """Every adjoint of the solver is one backward sweep, ``adjoint_for``."""

    @pytest.mark.parametrize("levy", [NO_JUMPS, LevyMeasure.from_pairs([(-0.1, 0.5)])], ids=["no-atom", "one-atom"])
    def test_sweep_is_the_projection_of_the_terminal_slope(self, levy):
        # with f_x = b_x = sigma_x = gamma_x = 0 the sweep's p is, bit for bit, the
        # per-step regression of g_x(X(T)) on X(t_i) that the Picard loop once ran itself
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, levy, 2000, 213)
        u = np.linspace(0.0, 0.8, GRID.n_steps)
        forward = euler_forward(coeffs, OpenLoopLaw(u), noise, -1.0)
        terminal = coeffs.g_x(forward.X[:, -1])
        reference = np.empty((noise.n_paths, GRID.n_steps))
        for i in range(GRID.n_steps):
            reference[:, i] = StateProjector(forward.X[:, i]).fit(terminal).fitted
        p = adjoint_for(coeffs, forward).p
        assert np.array_equal(p[:, :-1], reference)
        assert np.array_equal(p[:, -1], terminal)

    def test_one_sweep_per_iterate_and_one_to_start(self, monkeypatch):
        calls = []

        def counting(coeffs, forward):
            calls.append(forward.u.copy())
            return adjoint_for(coeffs, forward)

        monkeypatch.setattr(lqsolver, "adjoint_for", counting)
        p = params(x0=-1.0, seed=214, n_paths=2000)
        sol = solve_constrained(p)
        assert len(sol.residual_history) > 1
        assert len(calls) == len(sol.residual_history) + 1
        assert np.all(calls[0] == 0.0)
        assert np.array_equal(calls[-1], sol.u_values)
        fw = euler_forward(p.coeffs, OpenLoopLaw(sol.u_values), p.noise, p.x0)
        triple = adjoint_for(p.coeffs, fw)
        assert np.array_equal(sol.p_hat.p, triple.p)
        for mine, theirs in zip(qr_on_paths(sol.p_hat, fw.X), qr_on_paths(triple, fw.X)):
            assert np.array_equal(mine, theirs)

    def test_comparison_simulates_only_the_unconstrained_law(self, monkeypatch):
        # the constrained values come from the solver's last sweep, which ran that control
        p = params(x0=-1.0, seed=216, n_paths=2000)
        sol = solve_constrained(p)
        laws = []

        def counting(coeffs, law, noise, x0):
            laws.append(law)
            return euler_forward(coeffs, law, noise, x0)

        monkeypatch.setattr(lqsolver, "euler_forward", counting)
        report = compare_to_unconstrained(sol, p)
        assert len(laws) == 1
        again = performance_values(p.coeffs, euler_forward(p.coeffs, OpenLoopLaw(sol.u_values), p.noise, p.x0))
        assert np.array_equal(sol.values, again)
        assert (report.j_constrained, report.j_constrained_se) == mean_se(again)

    def test_one_triple_alive_at_a_time(self):
        # the solver's peak traced memory stays below that of one sweep, with its
        # control alive, plus half an adjoint p: keeping the previous triple through
        # the next sweep adds a whole p ((q, r) are per-step fits, a few bytes a step)
        p = params(x0=-1.0, seed=215, n_paths=4000)
        coeffs = p.coeffs
        u = np.full((p.noise.n_paths, GRID.n_steps), 0.3, order="F")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            triple = adjoint_for(coeffs, euler_forward(coeffs, OpenLoopLaw(u), p.noise, p.x0))
            sweep_peak = tracemalloc.get_traced_memory()[1] - base
            triple_bytes = triple.p.nbytes
            del triple
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sol = solve_constrained(p)
            solve_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(sol.residual_history) > 1
        assert solve_peak < sweep_peak + u.nbytes + triple_bytes / 2
