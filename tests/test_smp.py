import configparser
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from conftest import qr_on_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.errors import NonFiniteState
from smplab.harness import _plain, build_model, parse_config, run
from smplab.malliavin import mean_se
from smplab.model import (
    ControlledCoefficients,
    FeedbackLaw,
    LevyMeasure,
    OpenLoopLaw,
    TimeGrid,
    build_lq_coefficients,
    like,
    polynomial_coefficients,
)
from smplab.bsde import hamiltonian_sum, solve_adjoint
from smplab.simulate import LinearCoefficients, euler_forward, linear_closed_form, sample_noise
from smplab.smp import (
    SmpVerdict,
    _along,
    adjoint_for,
    check_necessary_condition,
    check_spike_grids,
    hamiltonian_du,
    partials_along,
    performance_values,
    spike_perturb,
    spiked_values,
    variational_Z,
)

GRID = TimeGrid(1.0, 100)
NO_JUMPS = LevyMeasure.empty()
ATOM = LevyMeasure.from_pairs([(0.2, 1.0)])


def affine_cost_coeffs(run_u=-0.6):
    """Hamiltonian affine in the control: f = run_u * u, b = u, g = -x^2/2."""
    lq = build_lq_coefficients(0.1)
    return ControlledCoefficients(
        **{
            **lq.__dict__,
            "f": lambda t, x, u: like(run_u * np.asarray(u, dtype=float), x, u),
            "f_u": lambda t, x, u: like(run_u, x, u),
            "f_x": lambda t, x, u: like(0.0, x, u),
            "control_set": (0.0, 2.0),
        }
    )


def hamiltonian_of(t, x, u, p, q, r, coeffs, levy):
    """H = f + b p + sigma q + sum_k gamma(.., zeta_k) r_k lam_k: ``hamiltonian_sum`` of the maps of ``coeffs``."""
    gammas = [coeffs.gamma(t, x, u, zeta) for zeta in levy.zetas]
    return hamiltonian_sum(coeffs.f(t, x, u), coeffs.b(t, x, u), coeffs.sigma(t, x, u), gammas, p, q, r, levy)


class TestHamiltonian:
    def test_lq_form(self):
        coeffs = build_lq_coefficients(0.3)
        value = hamiltonian_of(0.1, 1.0, 2.0, 0.5, 0.7, np.array([1.5]), coeffs, ATOM)
        expected = -0.5 * 4.0 + 2.0 * 0.5 + 0.3 * 0.7 + 0.2 * 1.5 * 1.0
        assert float(value) == pytest.approx(expected)

    def test_zero_adjoints_reduce_to_cost(self):
        coeffs = build_lq_coefficients(0.3)
        value = hamiltonian_of(0.1, 1.0, 2.0, 0.0, 0.0, np.array([0.0]), coeffs, ATOM)
        assert float(value) == pytest.approx(float(coeffs.f(0.1, 1.0, 2.0)))
        # zero control with p arbitrary and q = r = 0: drift term vanishes too
        assert float(hamiltonian_of(0.1, 1.0, 0.0, 2.0, 0.0, np.array([0.0]), coeffs, ATOM)) == pytest.approx(0.0)

    def test_du_stationarity(self):
        coeffs = build_lq_coefficients(0.3)
        assert float(hamiltonian_du(0.0, 0.0, 1.0, 1.0, 0.0, np.zeros(0), coeffs, NO_JUMPS)) == pytest.approx(0.0)
        assert float(hamiltonian_du(0.0, 0.0, 0.0, -0.5, 0.0, np.zeros(0), coeffs, NO_JUMPS)) == pytest.approx(-0.5)

    def test_du_control_independent_coefficients(self):
        coeffs = affine_cost_coeffs(run_u=-0.6)
        frozen = ControlledCoefficients(**{**coeffs.__dict__, "b_u": lambda t, x, u: like(0.0, x, u)})
        assert float(hamiltonian_du(0.0, 1.0, 0.5, 3.0, 2.0, np.zeros(0), frozen, NO_JUMPS)) == pytest.approx(-0.6)

    @given(
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_affine_in_adjoints(self, p1, q1, r1, p2, q2, r2):
        coeffs = build_lq_coefficients(0.3)
        args = (0.2, 0.7, 1.3)
        h1 = float(hamiltonian_of(*args, p1, q1, np.array([r1]), coeffs, ATOM))
        h2 = float(hamiltonian_of(*args, p2, q2, np.array([r2]), coeffs, ATOM))
        mid = (0.5 * (p1 + p2), 0.5 * (q1 + q2), np.array([0.5 * (r1 + r2)]))
        h_mid = float(hamiltonian_of(*args, *mid, coeffs, ATOM))
        assert h_mid == pytest.approx(0.5 * (h1 + h2), rel=1e-9, abs=1e-9)


class TestSpikePerturb:
    def test_index_arithmetic(self):
        base = OpenLoopLaw(np.zeros(100))
        law = spike_perturb(base, GRID, 0.5, 0.1, 1.0)
        x = np.zeros(4)
        values = np.array([float(law.control_at(i, GRID.times()[i], x)[0]) for i in range(100)])
        assert np.all(values[50:60] == 1.0)
        assert np.all(values[:50] == 0.0)
        assert np.all(values[60:] == 0.0)

    def test_window_covering_everything(self):
        base = OpenLoopLaw(np.linspace(0, 1, 100))
        law = spike_perturb(base, GRID, 0.0, 1.0, 0.7)
        x = np.zeros(2)
        assert all(float(law.control_at(i, 0.0, x)[0]) == 0.7 for i in range(100))

    def test_sub_step_window_hits_one_step(self):
        base = OpenLoopLaw(np.zeros(100))
        law = spike_perturb(base, GRID, 0.5, 0.004, 1.0)
        x = np.zeros(1)
        hits = [i for i in range(100) if float(law.control_at(i, 0.0, x)[0]) == 1.0]
        assert hits == [50]

    def test_feedback_spike_value_frozen_at_tau(self):
        base = OpenLoopLaw(np.zeros(100))
        x_tau = np.array([1.0, 2.0, 3.0])
        law = spike_perturb(base, GRID, 0.5, 0.1, lambda x: 0.5 * x, x_at_tau=x_tau)
        out = law.control_at(55, 0.55, np.array([9.0, 9.0, 9.0]))
        assert np.allclose(out, [0.5, 1.0, 1.5])

    def test_feedback_spike_requires_state(self):
        base = OpenLoopLaw(np.zeros(100))
        with pytest.raises(ValueError):
            spike_perturb(base, GRID, 0.5, 0.1, lambda x: x)

    @given(st.floats(0.0, 0.95), st.floats(0.01, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_window_rule_property(self, tau, length):
        length = min(length, GRID.horizon - tau)
        if length <= 0:
            return
        window = GRID.window_steps(tau, length)
        times = GRID.times()
        tol = 1e-9 * GRID.dt
        for i in range(GRID.n_steps):
            overlaps = times[i] < tau + length - tol and times[i + 1] > tau + tol
            assert bool(window[i]) == overlaps

    def test_spike_identity_bit_exact(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, ATOM, 500, 30)
        base = OpenLoopLaw(np.full(100, 0.3))
        spiked = spike_perturb(base, GRID, 0.4, 0.2, 0.3)
        j0 = performance_values(coeffs, euler_forward(coeffs, base, noise, 1.0))
        j1 = performance_values(coeffs, euler_forward(coeffs, spiked, noise, 1.0))
        assert np.array_equal(j0, j1)


class TestPerformance:
    def test_zero_cost_zero_payoff(self):
        coeffs = affine_cost_coeffs(run_u=0.0)
        zeroed = ControlledCoefficients(
            **{
                **coeffs.__dict__,
                "f": lambda t, x, u: like(0.0, x, u),
                "g": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            }
        )
        noise = sample_noise(GRID, NO_JUMPS, 100, 31)
        estimate, _ = mean_se(performance_values(zeroed, euler_forward(zeroed, OpenLoopLaw(np.zeros(100)), noise, 1.0)))
        assert estimate == 0.0

    def test_deterministic_lq_value(self):
        coeffs = build_lq_coefficients(0.0)
        noise = sample_noise(GRID, NO_JUMPS, 16, 32)
        estimate, _ = mean_se(performance_values(coeffs, euler_forward(coeffs, OpenLoopLaw(np.zeros(100)), noise, 1.0)))
        assert estimate == pytest.approx(-0.5, abs=1e-12)

    def test_gaussian_second_moment(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 100_000, 33)
        forward = euler_forward(coeffs, OpenLoopLaw(np.zeros(100)), noise, 1.0)
        estimate, se = mean_se(performance_values(coeffs, forward))
        assert abs(estimate - (-0.505)) <= 5 * se


def closed_form_Z(law, coeffs, forward):
    """The variation-of-constants solution of the linear equation ``smp.variational_Z``
    Euler-steps: ``linear_closed_form`` of the same partials and spike."""
    part = partials_along(coeffs, forward)
    b_u, sigma_u, gamma_u = (_along(coeffs, forward, name) for name in ("b_u", "sigma_u", "gamma_u"))
    du = np.zeros(forward.u.shape, order="F")
    du[:, law.window] = np.reshape(coeffs.clamp(law.spike_values), (-1, 1)) - forward.u[:, law.window]
    lin = LinearCoefficients(
        b0=b_u * du, b1=part.b_x, s0=sigma_u * du, s1=part.sigma_x, g0=gamma_u * du[:, :, None], g1=part.gamma_x
    )
    return linear_closed_form(lin, forward.noise, 0.0).X


class TestVariationalZ:
    def test_zero_perturbation(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, ATOM, 400, 34)
        base = OpenLoopLaw(np.full(100, 0.4))
        for solution in (variational_Z, closed_form_Z):
            Z = solution(spike_perturb(base, GRID, 0.3, 0.2, 0.4), coeffs, euler_forward(coeffs, base, noise, 1.0))
            assert np.allclose(Z, 0.0, atol=1e-14)

    def test_lq_drift_only_integral(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 200, 35)
        base = OpenLoopLaw(np.zeros(100))
        Z = variational_Z(
            spike_perturb(base, GRID, 0.5, 0.1, 1.0), coeffs, euler_forward(coeffs, base, noise, 1.0)
        )
        assert np.allclose(Z[:, -1], 0.1, atol=1e-12)
        Zc = closed_form_Z(
            spike_perturb(base, GRID, 0.5, 0.1, 1.0), coeffs, euler_forward(coeffs, base, noise, 1.0)
        )
        assert np.allclose(Z, Zc, atol=1e-12)

    def test_quadratic_scaling(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 200, 36)
        base = OpenLoopLaw(np.zeros(100))
        z_big = variational_Z(
            spike_perturb(base, GRID, 0.5, 0.2, 1.0), coeffs, euler_forward(coeffs, base, noise, 1.0)
        )
        z_small = variational_Z(
            spike_perturb(base, GRID, 0.5, 0.1, 1.0), coeffs, euler_forward(coeffs, base, noise, 1.0)
        )
        ratio = np.mean(z_big[:, -1] ** 2) / np.mean(z_small[:, -1] ** 2)
        assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3

    def test_monotone_shrinkage(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, ATOM, 2000, 37)
        base = OpenLoopLaw(np.zeros(100))
        seconds, sups = [], []
        for eps in (0.4, 0.2, 0.1, 0.05):
            Z = variational_Z(
                spike_perturb(base, GRID, 0.5, eps, 1.0), coeffs, euler_forward(coeffs, base, noise, 1.0)
            )
            seconds.append(float(np.mean(Z[:, -1] ** 2)))
            sups.append(float(np.abs(Z).max()))
        assert all(a >= b for a, b in zip(seconds, seconds[1:]))
        assert all(a >= b for a, b in zip(sups, sups[1:]))

    def test_modes_agree_with_state_dependence(self):
        # drift b = 0.3 x + u couples Z to the weight process
        lq = build_lq_coefficients(0.1)
        coeffs = ControlledCoefficients(
            **{
                **lq.__dict__,
                "b": lambda t, x, u: 0.3 * np.asarray(x, dtype=float) + np.asarray(u, dtype=float),
                "b_x": lambda t, x, u: like(0.3, x, u),
            }
        )
        grid = TimeGrid(1.0, 400)
        noise = sample_noise(grid, NO_JUMPS, 2000, 38)
        base = OpenLoopLaw(np.zeros(400))
        Zd = variational_Z(
            spike_perturb(base, grid, 0.5, 0.1, 1.0), coeffs, euler_forward(coeffs, base, noise, 1.0)
        )
        Zc = closed_form_Z(
            spike_perturb(base, grid, 0.5, 0.1, 1.0), coeffs, euler_forward(coeffs, base, noise, 1.0)
        )
        rel = np.sqrt(np.mean((Zd[:, -1] - Zc[:, -1]) ** 2) / np.mean(Zc[:, -1] ** 2))
        assert rel < 0.01

    def test_reads_the_partials_of_each_step(self):
        # state and control partials that vary with t, x and u, and one jump
        # column per atom: both modes equal the linearization written out on
        # partials evaluated step by step, bit for bit
        grid = TimeGrid(1.0, 20)
        levy = LevyMeasure.from_pairs([(0.2, 1.0), (-0.1, 2.0)])
        poly = polynomial_coefficients(b_poly=(0.1, 0.2, -0.05), sigma_poly=(0.2, 0.1), gamma_poly=(0.05, 0.1, 0.2))
        coeffs = ControlledCoefficients(
            **{
                **poly.__dict__,
                "b_u": lambda t, x, u: 1.0 + 0.5 * t * np.asarray(x, dtype=float) + 0.1 * np.asarray(u, dtype=float),
                "sigma_u": lambda t, x, u: 0.1 - 0.2 * t * np.asarray(x, dtype=float),
                "gamma_u": lambda t, x, u, z: z * (0.2 + 0.3 * np.asarray(x, dtype=float) * np.asarray(u, dtype=float)),
            }
        )
        noise = sample_noise(grid, levy, 300, 44)
        base = OpenLoopLaw(np.linspace(-0.5, 0.5, 20))
        forward = euler_forward(coeffs, base, noise, 0.5)
        law = spike_perturb(base, grid, 0.3, 0.2, 0.9)

        times = grid.times()
        comp = noise.compensated_counts()

        def at(name, *zeta):
            return np.column_stack(
                [getattr(coeffs, name)(times[i], forward.X[:, i], forward.u[:, i], *zeta) for i in range(20)]
            )

        def jump(name):
            return np.asfortranarray(np.stack([at(name, zeta) for zeta in levy.zetas], axis=2))

        b_x, b_u, sigma_x, sigma_u = (np.asfortranarray(at(name)) for name in ("b_x", "b_u", "sigma_x", "sigma_u"))
        gamma_x, gamma_u = jump("gamma_x"), jump("gamma_u")
        assert np.ptp(b_u) > 0.0 and np.ptp(sigma_u) > 0.0 and np.ptp(gamma_u[:, :, 1]) > 0.0
        du = np.where(law.window, 0.9 - forward.u, 0.0)
        Z = np.zeros((300, 21))
        for i in range(int(np.argmax(law.window)), 20):
            z = Z[:, i]
            dz = (b_x[:, i] * z + b_u[:, i] * du[:, i]) * grid.dt
            dz += (sigma_x[:, i] * z + sigma_u[:, i] * du[:, i]) * noise.dB[:, i]
            for k in range(2):
                dz += (gamma_x[:, i, k] * z + gamma_u[:, i, k] * du[:, i]) * comp[:, i, k]
            Z[:, i + 1] = z + dz
        assert np.array_equal(variational_Z(law, coeffs, forward), Z)
        lin = LinearCoefficients(
            b0=b_u * du, b1=b_x, s0=sigma_u * du, s1=sigma_x, g0=gamma_u * du[:, :, None], g1=gamma_x
        )
        assert np.array_equal(closed_form_Z(law, coeffs, forward), linear_closed_form(lin, noise, 0.0).X)

    def test_closed_form_matches_direct_with_atoms(self):
        # with atoms, the closed form still agrees with the direct simulation
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, ATOM, 3000, 39)
        base = OpenLoopLaw(np.zeros(100))
        spike = spike_perturb(base, GRID, 0.5, 0.1, 1.0)
        Zd = variational_Z(spike, coeffs, euler_forward(coeffs, base, noise, 1.0))
        Zc = closed_form_Z(spike, coeffs, euler_forward(coeffs, base, noise, 1.0))
        assert np.allclose(Zd, Zc, atol=1e-10)
        agreement = np.sqrt(np.mean((Zc[:, -1] - Zd[:, -1]) ** 2))
        assert agreement < 1e-10


class TestVerdictInputs:
    @pytest.mark.parametrize(
        "taus, vs, eps",
        [
            ([0.5], [-1.0], [0.1]),
            ([], [1.0], [0.1]),
            ([0.5], [], [0.1]),
            ([0.5], [1.0], []),
            ([1.0], [1.0], [0.1]),
            ([0.5], [1.0], [0.1, 1e-12]),
            ([0.5], [0.0], [0.02, 0.015]),
            ([0.5], [1.0], [0.1, 0.1]),
        ],
        ids=["v-outside-control-set", "empty-tau-grid", "empty-v-grid", "empty-eps-grid", "spike-at-horizon",
             "window-meeting-no-step", "eps-repeating-a-window", "repeated-eps"],
    )
    def test_rejected_before_simulating(self, taus, vs, eps):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 10, 40)
        with pytest.raises(ValueError):
            check_necessary_condition(OpenLoopLaw(np.zeros(100)), coeffs, noise, 1.0, taus, vs, eps)

    def test_repeated_window_names_tau_and_both_eps(self):
        # on 100 steps eps = 0.02 and 0.015 select steps 25-27 and 25-26 from tau = 0.255,
        # but both select steps 75 and 76 from tau = 0.75
        with pytest.raises(ValueError, match=r"eps_grid values 0\.02 and 0\.015 select the same steps at tau = 0\.75"):
            check_spike_grids(build_lq_coefficients(0.1), GRID, [0.255, 0.75], [0.0], [0.02, 0.015])


class TestSpikedValues:
    """The spike engine runs each spiked law from its window on, from the base
    state and the base running cost, and must reproduce the full re-simulation
    ``performance_values`` of ``spike_perturb(...)`` bit for bit."""

    GRID = TimeGrid(1.0, 40)
    # tau on a node, tau inside a step, tau = 0 and windows that end at T
    WINDOWS = [(0.25, 0.1), (0.25, 0.025), (0.313, 0.05), (0.313, 0.004), (0.0, 0.2), (0.9, 0.1), (0.975, 0.025)]

    @staticmethod
    def coeffs():
        # control in drift, diffusion, jumps and cost; the clamp to [-0.5, 0.8] binds
        return polynomial_coefficients(
            b_poly=(0.1, -0.3), b_u=1.0, sigma_poly=(0.2, 0.1), sigma_u=0.3, gamma_poly=(0.05, 0.1), gamma_u=0.2,
            f_poly=(0.0, 0.3, -0.2), f_u=0.1, u_cost=1.0, g_poly=(0.0, 0.4, -0.5), control_set=(-0.5, 0.8),
        )

    @pytest.mark.parametrize(
        "candidate",
        [OpenLoopLaw(np.linspace(-1.0, 1.2, 40)), FeedbackLaw(lambda step, t, x: 1.5 - 2.0 * x + 0.02 * step)],
        ids=["open-loop", "feedback"],
    )
    @pytest.mark.parametrize(
        "levy", [NO_JUMPS, LevyMeasure.from_pairs([(0.2, 1.5), (-0.3, 0.8)])], ids=["no-atoms", "two-atoms"]
    )
    def test_bit_exact_against_full_run(self, candidate, levy):
        coeffs, grid = self.coeffs(), self.GRID
        noise = sample_noise(grid, levy, 300, 46)
        forward = euler_forward(coeffs, candidate, noise, 0.7)
        assert np.any((forward.u == -0.5) | (forward.u == 0.8))
        prefixes = {}
        for tau, eps in self.WINDOWS:
            x_tau = forward.X[:, grid.step_of(tau)]
            for v in (-0.5, 0.3, 0.8, lambda x: 2.0 * x):
                law = spike_perturb(candidate, grid, tau, eps, v, x_at_tau=x_tau)
                expected = performance_values(coeffs, euler_forward(coeffs, law, noise, 0.7))
                assert np.array_equal(spiked_values(law, coeffs, forward, {}), expected), (tau, eps, v)
                assert np.array_equal(spiked_values(law, coeffs, forward, prefixes), expected), (tau, eps, v)

    def test_non_finite_state_as_euler_forward(self):
        # the exploding drift of the simulate tests, switched on by the control:
        # the base path (u = 0) stays finite and the spiked one overflows
        coeffs = polynomial_coefficients(sigma_poly=(0.0, 0.5))
        drift = lambda t, x, u: np.asarray(u, dtype=float) * np.exp(np.asarray(x, dtype=float) ** 2)
        exploding = ControlledCoefficients(**{**coeffs.__dict__, "b": drift})
        grid = TimeGrid(1.0, 20)
        noise = sample_noise(grid, NO_JUMPS, 64, 47)
        base = OpenLoopLaw(np.zeros(20))
        forward = euler_forward(exploding, base, noise, 1.5)
        law = spike_perturb(base, grid, 0.5, 0.5, 1.0)
        with pytest.raises(NonFiniteState) as full:
            euler_forward(exploding, law, noise, 1.5)
        with pytest.raises(NonFiniteState) as engine:
            spiked_values(law, exploding, forward, {})
        assert full.value.step >= 10
        assert (engine.value.step, engine.value.path) == (full.value.step, full.value.path)


class TestPartialsAlong:
    def test_matches_per_step_evaluation(self, tmp_path):
        # custom-polynomial partials depend on x, and gamma_x carries one
        # column per atom
        path = tmp_path / "model.ini"
        path.write_text(
            "[experiment]\nkind = simulate\n[model]\nfamily = custom-polynomial\n"
            "atoms = 0.2:1.0; -0.1:2.0\nb_poly = 0.1, 0.2, -0.05\nb_u = 1.0\n"
            "sigma_poly = 0.2, 0.1\nsigma_u = 0.1\ngamma_poly = 0.05, 0.1, 0.2\n"
            "f_poly = 0.0, 0.3, -0.2\ng_poly = 0.0, 0.0, -0.5\n"
        )
        coeffs, levy, x0 = build_model(parse_config(path))
        grid = TimeGrid(1.0, 20)
        noise = sample_noise(grid, levy, 300, 31)
        forward = euler_forward(coeffs, OpenLoopLaw(np.linspace(-0.5, 0.5, 20)), noise, x0)
        part = partials_along(coeffs, forward)

        # the state partials, the only ones the adjoint generator reads
        assert [field.name for field in dataclasses.fields(part)] == ["f_x", "b_x", "sigma_x", "gamma_x"]
        times = grid.times()
        for name in ("f_x", "b_x", "sigma_x"):
            expected = np.column_stack(
                [getattr(coeffs, name)(times[i], forward.X[:, i], forward.u[:, i]) for i in range(20)]
            )
            assert getattr(part, name).shape == (300, 20)
            assert np.array_equal(getattr(part, name), expected), name
        expected = np.stack(
            [
                np.column_stack([coeffs.gamma_x(times[i], forward.X[:, i], forward.u[:, i], zeta) for i in range(20)])
                for zeta in levy.zetas
            ],
            axis=2,
        )
        assert part.gamma_x.shape == (300, 20, 2)
        assert np.array_equal(part.gamma_x, expected)
        assert np.ptp(part.b_x) > 0.0 and np.ptp(part.gamma_x[:, :, 0]) > 0.0


class TestAdjointFor:
    def test_sweep_evaluates_no_control_partial(self):
        # the adjoint generator reads only state partials: a model whose control
        # partials raise still has its adjoint and its implicit cross-check
        def raising(*args):
            raise AssertionError("a control partial was evaluated")

        lq = build_lq_coefficients(0.1)
        control_partials = ("f_u", "b_u", "sigma_u", "gamma_u")
        coeffs = ControlledCoefficients(**{**lq.__dict__, **dict.fromkeys(control_partials, raising)})
        noise = sample_noise(GRID, ATOM, 500, 43)
        forward = euler_forward(coeffs, OpenLoopLaw(np.full(100, 0.2)), noise, 1.0)
        triple = adjoint_for(coeffs, forward)
        part = partials_along(coeffs, forward)
        explicit, p_implicit = solve_adjoint(part, coeffs.g_x(forward.X[:, -1]), forward, cross_check=True)
        assert np.array_equal(explicit.p, triple.p)
        assert p_implicit.shape == triple.p.shape and np.all(np.isfinite(p_implicit))

    def test_zero_costs_give_zero_adjoint(self):
        lq = build_lq_coefficients(0.1)
        coeffs = ControlledCoefficients(
            **{
                **lq.__dict__,
                "f": lambda t, x, u: like(0.0, x, u),
                "f_u": lambda t, x, u: like(0.0, x, u),
                "g": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                "g_x": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            }
        )
        noise = sample_noise(GRID, NO_JUMPS, 1000, 40)
        law = OpenLoopLaw(np.zeros(100))
        fw = euler_forward(coeffs, law, noise, 1.0)
        triple = adjoint_for(coeffs, fw)
        assert np.allclose(triple.p, 0.0, atol=1e-9)
        assert np.allclose(qr_on_paths(triple, fw.X)[0], 0.0, atol=1e-7)

    def test_exponential_weight_through_drift_slope(self):
        # b = c x, g = x: p(t) = e^{c (T - t)}
        lq = build_lq_coefficients(0.0)
        c = 0.5
        coeffs = ControlledCoefficients(
            **{
                **lq.__dict__,
                "b": lambda t, x, u: c * np.asarray(x, dtype=float),
                "b_x": lambda t, x, u: like(c, x, u),
                "b_u": lambda t, x, u: like(0.0, x, u),
                "f": lambda t, x, u: like(0.0, x, u),
                "f_u": lambda t, x, u: like(0.0, x, u),
                "g": lambda x: np.asarray(x, dtype=float),
                "g_x": lambda x: np.ones_like(np.asarray(x, dtype=float)),
            }
        )
        noise = sample_noise(GRID, NO_JUMPS, 2000, 41)
        law = OpenLoopLaw(np.zeros(100))
        triple = adjoint_for(coeffs, euler_forward(coeffs, law, noise, 1.0))
        expected = np.exp(c * (GRID.horizon - GRID.times()))
        assert np.abs(triple.p - expected[None, :]).max() < 1e-8


class TestNecessaryCondition:
    def test_lq_zero_control_statistic_and_quotients(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 40_000, 42)
        law = OpenLoopLaw(np.zeros(100))
        verdict = check_necessary_condition(law, coeffs, noise, 1.0, [0.5], [1.0], [0.2, 0.1, 0.05])
        stat = verdict.statistic[0, 0]
        assert abs(stat - (-1.0)) <= 5 * verdict.statistic_se[0, 0] + 0.01
        # common-noise quotient approaches the Hamiltonian increment
        # E[H(v) - H(u)] = -1.5, from above, with slope eps/2
        for c, eps in enumerate(verdict.eps_grid):
            expected = -1.5 - eps / 2.0
            assert abs(verdict.diff_quotient[0, 0, c] - expected) <= 5 * verdict.diff_quotient_se[0, 0, c] + 0.01
        gaps = np.abs(verdict.diff_quotient[0, 0] - stat)
        assert np.all(np.diff(gaps) <= 1e-12)
        assert verdict.passed

    def test_affine_hamiltonian_first_order_expansion(self):
        # for an affine-in-u Hamiltonian the quotient converges to the
        # statistic: the normalized expansion error falls below half its
        # initial value over two halvings
        coeffs = affine_cost_coeffs(run_u=-0.6)
        noise = sample_noise(GRID, NO_JUMPS, 40_000, 43)
        law = OpenLoopLaw(np.zeros(100))
        verdict = check_necessary_condition(law, coeffs, noise, 1.0, [0.5], [1.0], [0.4, 0.2, 0.1])
        gaps = np.abs(verdict.diff_quotient[0, 0] - verdict.statistic[0, 0])
        assert gaps[-1] < 0.5 * gaps[0]
        assert verdict.passed == bool(verdict.statistic[0, 0] <= 3 * verdict.statistic_se[0, 0])

    def test_gap_rule_per_cell(self):
        # a cell's gap fails when it grows along shrinking eps by more than its
        # 3 SE band; with one eps there is no pair to compare, so every cell holds.
        # Under a convex payoff g = x^2/2 the gap at v = 1 is about 1/2 - eps/2, so it grows
        coeffs = polynomial_coefficients(b_u=1.0, sigma_poly=(0.05,), u_cost=1.0, g_poly=(0.0, 0.0, 0.5))
        noise = sample_noise(GRID, NO_JUMPS, 500, 47)
        law = OpenLoopLaw(np.zeros(100))
        verdict = check_necessary_condition(law, coeffs, noise, 1.0, [0.25, 0.5], [0.0, 1.0], [0.2, 0.1, 0.05])
        assert verdict.gap_shrinks.tolist() == [[True, False], [True, False]]
        for a, b in np.ndindex(verdict.gap_shrinks.shape):
            gaps = np.abs(verdict.diff_quotient[a, b] - verdict.statistic[a, b])
            se, stat_se = verdict.diff_quotient_se[a, b], verdict.statistic_se[a, b]
            grows = [gaps[c + 1] > gaps[c] + 3.0 * (se[c] + se[c + 1] + stat_se) for c in range(2)]
            assert verdict.gap_shrinks[a, b] == (not any(grows))
        single = check_necessary_condition(law, coeffs, noise, 1.0, [0.25, 0.5], [0.0, 1.0], [0.2])
        assert single.gap_shrinks.shape == (2, 2) and single.gap_shrinks.all()

    def test_suboptimal_constant_control_fails(self):
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 20_000, 44)
        law = OpenLoopLaw(np.ones(100))
        verdict = check_necessary_condition(law, coeffs, noise, 1.0, [0.5], [0.0], [0.2, 0.1])
        stat = verdict.statistic[0, 0]
        assert stat > 3 * verdict.statistic_se[0, 0]
        assert not verdict.passed

    def test_quotient_divides_by_the_realized_window(self):
        # from tau = 0.5 on 100 steps, eps = 0.015 selects the same two steps as
        # eps = 0.02, so the two verdicts run the same spiked law and give one quotient
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 2000, 301)
        law = OpenLoopLaw(np.ones(100))
        wide, narrow = (check_necessary_condition(law, coeffs, noise, 1.0, [0.5], [0.0], [eps]) for eps in (0.02, 0.015))
        assert wide.diff_quotient[0, 0, 0] == narrow.diff_quotient[0, 0, 0]
        assert wide.diff_quotient_se[0, 0, 0] == narrow.diff_quotient_se[0, 0, 0]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: at the interior optimum dH/du = p - u is zero up to solver and "
        "regression error, and the rule statistic <= 3 SE has no term for that error",
    )
    def test_interior_optimum_passes(self, tmp_path):
        # the shipped verdict config started at x0 = -1: the optimal control leaves
        # the corner u = 0 of the control set, so the optimum is interior
        cfg = configparser.ConfigParser()
        cfg.read(Path(__file__).resolve().parents[1] / "configs" / "check_smp.ini")
        cfg["model"]["x0"] = "-1.0"
        path = tmp_path / "interior.ini"
        with open(path, "w") as fh:
            cfg.write(fh)
        assert run(parse_config(path)).exit_code == 0

    def test_verdict_serialization(self, run_ini):
        # the files a check-smp run writes, against the verdict taken on the same inputs
        grids = "[smp]\ncandidate = zero\ntau_grid = 0.25, 0.75\nv_grid = 0.0, 1.0\neps_grid = 0.2, 0.1\n"
        out = run_ini("check-smp", "[mc]\nn_paths = 2000\nseed = 45\n" + grids)
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(GRID, NO_JUMPS, 2000, 45)
        law = OpenLoopLaw(np.zeros(100))
        verdict = check_necessary_condition(law, coeffs, noise, 1.0, [0.25, 0.75], [0.0, 1.0], [0.2, 0.1])
        import csv
        import json

        blob = json.load(open(out / "smp_verdict.json"))
        assert blob["passed"] == verdict.passed
        assert blob == json.loads(json.dumps(_plain(verdict)))
        rows = list(csv.reader(open(out / "smp_verdict.csv", newline="")))
        assert rows[0] == ["tau", "v", "eps", "statistic", "se", "diff_quotient", "pass"]
        assert len(rows) == 1 + 2 * 2 * 2
        # row (tau, v, eps) = (0.75, 0.0, 0.1): floats at 17 digits, the cell's pass flag as a bool
        cells = [0.75, 0.0, 0.1, verdict.statistic[1, 0], verdict.statistic_se[1, 0], verdict.diff_quotient[1, 0, 1]]
        assert rows[6] == [format(v, ".17g") for v in cells] + [str(bool(verdict.pass_cells[1, 0]))]


class TestForkedVerdict:
    """The verdict runs its spiked cells in forked chunks of about equal
    path-steps (``simulate.run_chunks``) and must give the in-process verdict
    bit for bit; a failed cell raises what the in-process run raises."""

    # runs start at steps 10, 50 and 85: 4 cells each of 90, 50 and 15 steps.
    # Two chunks cut after cell 3 and three chunks after cells 2 and 5, so
    # cells that share a running-cost prefix land in different processes
    TAUS, VS, EPS = [0.1, 0.5, 0.85], [-0.5, 0.8], [0.1, 0.05]
    N_PATHS = 300

    @staticmethod
    def verdict_fields(verdict):
        return {f.name: getattr(verdict, f.name) for f in dataclasses.fields(SmpVerdict)}

    @pytest.mark.parametrize("levy", [NO_JUMPS, ATOM], ids=["no-atoms", "one-atom"])
    @pytest.mark.parametrize("cpus, n_forks", [(2, 1), (3, 2)])
    def test_bits_of_the_in_process_verdict(self, fork_seams, levy, cpus, n_forks):
        set_seams, forks = fork_seams
        coeffs = TestSpikedValues.coeffs()
        candidate = FeedbackLaw(lambda step, t, x: 1.5 - 2.0 * x + 0.02 * step)
        noise = sample_noise(GRID, levy, self.N_PATHS, 48)
        args = (candidate, coeffs, noise, 0.7, self.TAUS, self.VS, self.EPS)
        set_seams(1, 100)
        serial = check_necessary_condition(*args)
        assert forks == []
        # 12 cells of 620 x 300 path-steps in all: one chunk per 10,000 path-steps
        # would allow 18 chunks, so the CPUs decide
        set_seams(cpus, 10_000)
        forked = check_necessary_condition(*args)
        assert len(forks) == n_forks
        for name, value in self.verdict_fields(serial).items():
            other = self.verdict_fields(forked)[name]
            if isinstance(value, np.ndarray):
                assert value.dtype == other.dtype and np.array_equal(value, other), name
                assert np.array_equal(np.signbit(value), np.signbit(other)), name
            else:
                assert value == other, name

    @pytest.mark.parametrize("chunk_paths, n_forks", [(1861, 0), (1860, 0), (930, 1), (620, 2), (1, 2)])
    def test_forks_above_the_work_floor(self, fork_seams, chunk_paths, n_forks):
        # 186,000 path-steps, at a floor of chunk_paths x N = 100 path-steps per
        # chunk: one chunk at 1860 paths, two at 930, three at 620; three CPUs cap the count
        set_seams, forks = fork_seams
        noise = sample_noise(GRID, NO_JUMPS, self.N_PATHS, 49)
        set_seams(3, chunk_paths * GRID.n_steps)
        law = OpenLoopLaw(np.zeros(100))
        check_necessary_condition(law, build_lq_coefficients(0.1), noise, 1.0, self.TAUS, [0.0, 1.0], self.EPS)
        assert len(forks) == n_forks

    def test_at_most_one_chunk_per_cell(self, fork_seams):
        set_seams, forks = fork_seams
        noise = sample_noise(GRID, NO_JUMPS, self.N_PATHS, 49)
        set_seams(8, 100)
        law = OpenLoopLaw(np.zeros(100))
        check_necessary_condition(law, build_lq_coefficients(0.1), noise, 1.0, [0.2, 0.6], [1.0], [0.1, 0.05])
        assert len(forks) == 3

    @staticmethod
    def exploding(switch_on: float):
        # the exploding drift of TestSpikedValues, switched on by the control from time switch_on
        coeffs = polynomial_coefficients(sigma_poly=(0.0, 0.5))

        def drift(t, x, u):
            return np.asarray(u, dtype=float) * np.exp(np.asarray(x, dtype=float) ** 2) * (np.asarray(t) >= switch_on)

        return ControlledCoefficients(**{**coeffs.__dict__, "b": drift})

    def test_non_finite_state_in_a_child_as_in_process(self, fork_seams):
        # the caller runs the cells of tau = 0.1 but one, whose runs stay
        # finite; the v = 1 cells at tau = 0.5 overflow in the child
        set_seams, forks = fork_seams
        coeffs = self.exploding(0.4)
        noise = sample_noise(GRID, NO_JUMPS, 64, 47)
        args = (OpenLoopLaw(np.zeros(100)), coeffs, noise, 1.5, [0.1, 0.5], [0.0, 1.0], [0.2, 0.1])
        set_seams(1, 100)
        with pytest.raises(NonFiniteState) as serial:
            check_necessary_condition(*args)
        set_seams(2, 100)
        with pytest.raises(NonFiniteState) as forked:
            check_necessary_condition(*args)
        assert len(forks) == 1
        assert serial.value.step >= 50
        assert (forked.value.step, forked.value.path) == (serial.value.step, serial.value.path)

    def test_failure_in_the_callers_chunk_leaves_no_child(self, fork_seams):
        # every v = 1 cell overflows, the first of them in the caller's chunk;
        # the fixture checks that no child is left
        set_seams, forks = fork_seams
        coeffs = self.exploding(0.0)
        noise = sample_noise(GRID, NO_JUMPS, 64, 47)
        args = (OpenLoopLaw(np.zeros(100)), coeffs, noise, 1.5, [0.1, 0.5], [1.0, 0.0], [0.2, 0.1])
        set_seams(1, 100)
        with pytest.raises(NonFiniteState) as serial:
            check_necessary_condition(*args)
        set_seams(2, 100)
        with pytest.raises(NonFiniteState) as forked:
            check_necessary_condition(*args)
        assert len(forks) == 1
        assert (forked.value.step, forked.value.path) == (serial.value.step, serial.value.path)
