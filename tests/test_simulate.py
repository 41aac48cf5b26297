import csv
import math

import numpy as np
import pytest

from smplab.errors import NonFiniteState, SingularJumpCoefficient
from smplab.model import ControlledCoefficients, LevyMeasure, OpenLoopLaw, TimeGrid, build_lq_coefficients, like
from smplab.simulate import (
    MAX_STEP_RATE,
    LinearCoefficients,
    dump_paths_csv,
    euler_forward,
    gamma_process,
    linear_closed_form,
    sample_noise,
    write_csv,
    _path_generator,
)


def linear_jump_coeffs(b1, s1):
    """dX = b1 X dt + s1 X dB + zeta X dN-compensated, no control."""
    return ControlledCoefficients(
        b=lambda t, x, u: b1 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u: s1 * np.asarray(x, dtype=float),
        gamma=lambda t, x, u, zeta: zeta * np.asarray(x, dtype=float),
        f=lambda t, x, u: like(0.0, x, u),
        g=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        b_x=lambda t, x, u: like(b1, x, u),
        b_u=lambda t, x, u: like(0.0, x, u),
        sigma_x=lambda t, x, u: like(s1, x, u),
        sigma_u=lambda t, x, u: like(0.0, x, u),
        gamma_x=lambda t, x, u, zeta: like(zeta, x, u),
        gamma_u=lambda t, x, u, zeta: like(0.0, x, u),
        f_x=lambda t, x, u: like(0.0, x, u),
        f_u=lambda t, x, u: like(0.0, x, u),
        g_x=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


GRID = TimeGrid(1.0, 100)
ATOM = LevyMeasure.from_pairs([(-0.1, 2.0)])


class TestSampleNoise:
    def test_deterministic(self):
        a = sample_noise(GRID, ATOM, 200, 7)
        b = sample_noise(GRID, ATOM, 200, 7)
        assert np.array_equal(a.dB, b.dB)
        assert np.array_equal(a.jump_counts, b.jump_counts)

    def test_extensible_ensembles(self):
        big = sample_noise(GRID, ATOM, 500, 7)
        small = sample_noise(GRID, ATOM, 60, 7)
        assert np.array_equal(big.dB[:60], small.dB)
        assert np.array_equal(big.jump_counts[:60], small.jump_counts)

    def test_matches_per_path_generator(self):
        bundle = sample_noise(GRID, ATOM, 20, 7)
        gen = _path_generator(7, 13)
        ref_db = gen.standard_normal(GRID.n_steps) * math.sqrt(GRID.dt)
        ref_counts = gen.poisson(lam=ATOM.intensities * GRID.dt, size=(GRID.n_steps, 1))
        assert np.array_equal(bundle.dB[13], ref_db)
        assert np.array_equal(bundle.jump_counts[13], ref_counts)

    def test_no_atoms_no_jumps(self):
        bundle = sample_noise(GRID, LevyMeasure.empty(), 50, 3)
        assert bundle.jump_counts.shape == (50, 100, 0)
        assert all(bundle.jumps(k) == [] for k in range(5))

    def test_brownian_moments(self):
        bundle = sample_noise(GRID, LevyMeasure.empty(), 10_000, 11)
        n_total = bundle.dB.size
        mean_se = math.sqrt(GRID.dt / n_total)
        assert abs(bundle.dB.mean()) <= 5 * mean_se
        var_se = GRID.dt * math.sqrt(2.0 / (n_total - 1))
        assert abs(bundle.dB.var() - GRID.dt) <= 5 * var_se

    def test_poisson_total_count(self):
        # atom (zeta=-0.1, lam=2), T=1: total jumps ~ Poisson(2)
        bundle = sample_noise(GRID, ATOM, 100_000, 13)
        totals = bundle.jump_counts.sum(axis=(1, 2))
        se = math.sqrt(2.0 / bundle.n_paths)
        assert abs(totals.mean() - 2.0) <= 5 * se

    def test_poisson_per_cell_mean(self):
        bundle = sample_noise(GRID, ATOM, 100_000, 13)
        rate = 2.0 * GRID.dt
        cell = bundle.jump_counts[:, 37, 0]
        se = math.sqrt(rate / bundle.n_paths)
        assert abs(cell.mean() - rate) <= 5 * se

    def test_step_rate_bound(self):
        # int16 counts cannot wrap: at the bound the counts sit near lam dt,
        # above it sampling is refused
        grid = TimeGrid(1.0, 10)
        at_bound = sample_noise(grid, LevyMeasure.from_pairs([(0.001, MAX_STEP_RATE * 10)]), 4, 1)
        assert np.all(np.abs(at_bound.jump_counts - MAX_STEP_RATE) < 10 * math.sqrt(MAX_STEP_RATE))
        with pytest.raises(ValueError):
            sample_noise(grid, LevyMeasure.from_pairs([(0.001, 400_000.0)]), 4, 1)

    def test_jump_event_listing(self):
        bundle = sample_noise(GRID, ATOM, 200, 7)
        events = bundle.jumps(3)
        rebuilt = np.zeros((100, 1), dtype=int)
        for step, atom, count in events:
            assert count >= 1
            rebuilt[step, atom] = count
        assert np.array_equal(rebuilt, bundle.jump_counts[3])


class TestEulerForward:
    def test_all_zero_coefficients(self):
        coeffs = linear_jump_coeffs(0.0, 0.0)
        noise = sample_noise(GRID, LevyMeasure.empty(), 40, 1)
        pb = euler_forward(coeffs, OpenLoopLaw(np.zeros(100)), noise, 0.0)
        assert np.all(pb.X == 0.0)

    def test_unit_drift(self):
        coeffs = build_lq_coefficients(0.0)
        noise = sample_noise(GRID, LevyMeasure.empty(), 16, 1)
        pb = euler_forward(coeffs, OpenLoopLaw(np.ones(100)), noise, 0.0)
        assert pb.X[:, -1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_control_martingale(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, ATOM, 50_000, 5)
        pb = euler_forward(coeffs, OpenLoopLaw(np.zeros(100)), noise, 1.0)
        terminal = pb.X[:, -1]
        se = terminal.std(ddof=1) / math.sqrt(terminal.shape[0])
        assert abs(terminal.mean() - 1.0) <= 5 * se

    def test_pure_jump_compensation(self):
        # b=0, sigma=0, gamma=zeta: compensated jumps are a martingale
        coeffs = ControlledCoefficients(
            b=lambda t, x, u: like(0.0, x, u),
            sigma=lambda t, x, u: like(0.0, x, u),
            gamma=lambda t, x, u, zeta: like(zeta, x, u),
            f=lambda t, x, u: like(0.0, x, u),
            g=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            b_x=lambda t, x, u: like(0.0, x, u),
            b_u=lambda t, x, u: like(0.0, x, u),
            sigma_x=lambda t, x, u: like(0.0, x, u),
            sigma_u=lambda t, x, u: like(0.0, x, u),
            gamma_x=lambda t, x, u, zeta: like(0.0, x, u),
            gamma_u=lambda t, x, u, zeta: like(0.0, x, u),
            f_x=lambda t, x, u: like(0.0, x, u),
            f_u=lambda t, x, u: like(0.0, x, u),
            g_x=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        noise = sample_noise(GRID, ATOM, 100_000, 17)
        pb = euler_forward(coeffs, OpenLoopLaw(np.zeros(100)), noise, 0.5)
        terminal = pb.X[:, -1]
        se = terminal.std(ddof=1) / math.sqrt(terminal.shape[0])
        assert abs(terminal.mean() - 0.5) <= 5 * se

    def test_non_finite_state_reported(self):
        coeffs = linear_jump_coeffs(0.0, 0.0)
        exploding = ControlledCoefficients(**{**coeffs.__dict__, "b": lambda t, x, u: np.exp(np.asarray(x, dtype=float) ** 2)})
        noise = sample_noise(TimeGrid(1.0, 20), LevyMeasure.empty(), 4, 1)
        with pytest.raises(NonFiniteState) as err:
            euler_forward(exploding, OpenLoopLaw(np.zeros(20)), noise, 30.0)
        assert err.value.step >= 0
        assert err.value.path >= 0


class TestLinearClosedForm:
    def test_fully_homogeneous_is_constant(self):
        noise = sample_noise(GRID, ATOM, 30, 2)
        pb = linear_closed_form(LinearCoefficients(), noise, 2.5)
        assert np.all(pb.X == 2.5)

    def test_deterministic_ode_oracle(self):
        # dX = (d + c X) dt: X(t) = e^{ct} x0 + d/c (e^{ct} - 1)
        grid = TimeGrid(1.0, 1000)
        noise = sample_noise(grid, LevyMeasure.empty(), 3, 1)
        c, d, x0 = 0.3, 0.7, 1.0
        pb = linear_closed_form(LinearCoefficients(b0=d, b1=c), noise, x0)
        t = grid.times()
        exact = np.exp(c * t) * x0 + (d / c) * (np.exp(c * t) - 1.0)
        assert np.abs(pb.X - exact).max() < 1e-3

    def test_one_dimensional_jump_array_is_per_atom(self):
        # N == K: a 1-D jump array is read per atom, never per step
        g0, g1 = LinearCoefficients(g0=[1.0, 2.0], g1=[0.1, 0.2]).broadcast(1, 2, 2)[4:]
        assert np.array_equal(g1, [[[0.1, 0.2], [0.1, 0.2]]])
        assert np.array_equal(g0, [[[1.0, 2.0], [1.0, 2.0]]])

    def test_one_dimensional_jump_array_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="per atom"):
            LinearCoefficients(g1=[0.1, 0.2, 0.3]).broadcast(4, 3, 2)

    def test_singular_jump_coefficient(self):
        noise = sample_noise(GRID, ATOM, 10, 2)
        with pytest.raises(SingularJumpCoefficient):
            linear_closed_form(LinearCoefficients(g1=-1.0), noise, 1.0)

    def test_euler_convergence_ratio(self):
        # strong-order-1/2 gap between the two discretizations: ratio ~ sqrt(2)
        coeffs = linear_jump_coeffs(0.05, 0.2)
        levy = LevyMeasure.from_pairs([(-0.1, 0.5)])
        rmses = []
        for n_steps in (64, 128, 256):
            grid = TimeGrid(1.0, n_steps)
            noise = sample_noise(grid, levy, 4000, 23)
            eul = euler_forward(coeffs, OpenLoopLaw(np.zeros(n_steps)), noise, 1.0)
            closed = linear_closed_form(LinearCoefficients(b1=0.05, s1=0.2, g1=-0.1), noise, 1.0)
            rmses.append(np.sqrt(np.mean((eul.X[:, -1] - closed.X[:, -1]) ** 2)))
        for coarse, fine in zip(rmses, rmses[1:]):
            assert 1.2 <= coarse / fine <= 1.8

    def test_jump_doleans_dade_martingale(self):
        levy = LevyMeasure.from_pairs([(0.3, 2.0)])
        noise = sample_noise(GRID, levy, 100_000, 5)
        gam = gamma_process(0.0, 0.0, np.array([0.3]), noise)
        terminal = gam[:, -1]
        se = terminal.std(ddof=1) / math.sqrt(terminal.shape[0])
        assert abs(terminal.mean() - 1.0) <= 5 * se
        assert np.all(gam > 0.0)


class TestGammaProcess:
    def test_path_dependent_arrays_match_euler(self):
        # per-(path, step) coefficient arrays: compare the closed form with a
        # direct Euler discretization of the weight equation at fine dt
        grid = TimeGrid(1.0, 2000)
        levy = LevyMeasure.from_pairs([(0.15, 1.5)])
        noise = sample_noise(grid, levy, 400, 29)
        rng = np.random.default_rng(0)
        b_x = 0.3 + 0.1 * np.sin(grid.times()[:-1])[None, :] + 0.05 * rng.standard_normal((1, 1))
        b_x = np.broadcast_to(b_x, (400, 2000))
        s_x = np.full((400, 2000), 0.2)
        g_x = np.full((400, 2000, 1), 0.15)
        gam = gamma_process(b_x, s_x, g_x, noise)
        euler = np.ones((400, 2001))
        comp = noise.compensated_counts()
        for i in range(2000):
            euler[:, i + 1] = euler[:, i] * (
                1.0 + b_x[:, i] * grid.dt + s_x[:, i] * noise.dB[:, i] + g_x[:, i, 0] * comp[:, i, 0]
            )
        rel = np.sqrt(np.mean((gam[:, -1] - euler[:, -1]) ** 2) / np.mean(euler[:, -1] ** 2))
        assert rel < 0.02

    def test_zero_partials(self):
        noise = sample_noise(GRID, ATOM, 25, 3)
        gam = gamma_process(0.0, 0.0, 0.0, noise)
        assert np.all(gam == 1.0)

    def test_exponential_oracle(self):
        noise = sample_noise(GRID, LevyMeasure.empty(), 8, 3)
        gam = gamma_process(0.4, 0.0, 0.0, noise)
        assert np.abs(gam - np.exp(0.4 * GRID.times())).max() < 1e-6

    def test_lq_model_gives_unit_weight(self):
        # all state partials vanish in the LQ model
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, ATOM, 25, 3)
        pb = euler_forward(coeffs, OpenLoopLaw(np.zeros(100)), noise, 1.0)
        t0 = GRID.times()[0]
        bx = coeffs.b_x(t0, pb.X[:, :-1], pb.u)
        assert np.all(bx == 0.0)
        gam = gamma_process(bx, 0.0, 0.0, noise)
        assert np.all(gam == 1.0)


class TestPathCsv:
    def test_header_digits_and_roundtrip(self, tmp_path):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(TimeGrid(1.0, 5), ATOM, 3, 9)
        pb = euler_forward(coeffs, OpenLoopLaw(np.zeros(5)), noise, 1.0)
        out = tmp_path / "paths.csv"
        dump_paths_csv(pb, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path_id", "step", "t", "X", "u", "dB", "jump_sum"]
        # 5 step rows + 1 terminal row per path
        assert len(rows) == 1 + 3 * 6
        # terminal state roundtrips at 17 significant digits
        terminal_row = rows[6]
        assert terminal_row[1] == "5"
        assert float(terminal_row[3]) == pb.X[0, -1]
        assert terminal_row[4] == ""

    def test_max_paths_limit(self, tmp_path):
        noise = sample_noise(TimeGrid(1.0, 4), LevyMeasure.empty(), 10, 9)
        pb = euler_forward(linear_jump_coeffs(0.0, 0.0), OpenLoopLaw(np.zeros(4)), noise, 0.0)
        out = tmp_path / "p.csv"
        dump_paths_csv(pb, out, max_paths=2)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 5


class TestWriteCsv:
    def test_cells(self, tmp_path):
        floats = [0.1, 1.0 / 3.0, np.float64(np.pi), np.float64(-2.5e-300), np.nextafter(1.0, 2.0)]
        write_csv(tmp_path / "w.csv", ["a", "b", "c", "d", "e"], [floats, [7, True, False, "", np.float64(1e300)]])
        rows = list(csv.reader(open(tmp_path / "w.csv", newline="")))
        assert rows[0] == ["a", "b", "c", "d", "e"]
        assert rows[1] == [format(float(v), ".17g") for v in floats]
        assert [float(cell) for cell in rows[1]] == [float(v) for v in floats]
        assert rows[2] == ["7", "True", "False", "", "1.0000000000000001e+300"]
