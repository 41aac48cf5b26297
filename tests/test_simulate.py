import csv
import math
import os
import re
import sys
import threading

import numpy as np
import pytest

from smplab.errors import NonFiniteState, SingularJumpCoefficient
from smplab.model import ControlledCoefficients, LevyMeasure, OpenLoopLaw, TimeGrid, build_lq_coefficients, like
from smplab.simulate import (
    MAX_STEP_RATE,
    LinearCoefficients,
    euler_forward,
    gamma_process,
    linear_closed_form,
    sample_noise,
    _path_generator,
)
from smplab import simulate
from smplab.harness import _write_csv


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
        # the shared re-keyed state, and the scalar rate of a single atom, give
        # the bits of a fresh per-path generator drawing from the (K,) rate array
        seed = 2**64 + 7
        for levy in (ATOM, LevyMeasure.from_pairs([(0.2, 1.5), (-0.3, 2.0)])):
            bundle = sample_noise(GRID, levy, 20, seed)
            for k in range(bundle.n_paths):
                gen = _path_generator(seed, k)
                ref_db = gen.standard_normal(GRID.n_steps) * math.sqrt(GRID.dt)
                ref_counts = gen.poisson(lam=levy.intensities * GRID.dt, size=(GRID.n_steps, levy.n_atoms))
                assert np.array_equal(bundle.dB[k], ref_db), k
                assert np.array_equal(bundle.jump_counts[k], ref_counts), k

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


LEVIES = {
    "K0": LevyMeasure.empty(),
    "K1": ATOM,
    "K2": LevyMeasure.from_pairs([(0.2, 1.5), (-0.3, 2.0)]),
}


def per_path_reference(grid, levy, n_paths, seed):
    """dB and counts of fresh per-path generators, one path at a time."""
    dB = np.empty((n_paths, grid.n_steps))
    counts = np.zeros((n_paths, grid.n_steps, levy.n_atoms), dtype=np.int16)
    for k in range(n_paths):
        gen = _path_generator(seed, k)
        dB[k] = gen.standard_normal(grid.n_steps) * math.sqrt(grid.dt)
        if levy.n_atoms:
            counts[k] = gen.poisson(lam=levy.intensities * grid.dt, size=(grid.n_steps, levy.n_atoms))
    return dB, counts


class TestForkedDraw:
    @pytest.mark.parametrize("levy", sorted(LEVIES), ids=str)
    @pytest.mark.parametrize(
        "n_paths, cpus, chunk_paths, n_forks",
        [
            (1001, 3, 300, 2),  # uneven: chunks of 334, 333 and 334 paths
            (2500, 2, 1000, 1),  # the second chunk starts at path 1250, inside a ROW_BLOCK
            (2500, 4, 800, 2),  # chunk edges at paths 833 and 1667 straddle ROW_BLOCK
            (2500, 8, 1250, 1),  # at most one chunk per chunk_paths paths
            (2500, 1, 100, 0),  # one CPU: the calling process draws every path
            (999, 4, 500, 0),  # fewer than two chunks
            (1, 4, 1, 0),
        ],
    )
    def test_matches_per_path_generator(self, fork_seams, levy, n_paths, cpus, chunk_paths, n_forks):
        # a floor of chunk_paths paths of N steps each
        set_seams, forks = fork_seams
        set_seams(cpus, chunk_paths * GRID.n_steps)
        seed = 2**64 + 7
        bundle = sample_noise(GRID, LEVIES[levy], n_paths, seed)
        assert len(forks) == n_forks
        ref_db, ref_counts = per_path_reference(GRID, LEVIES[levy], n_paths, seed)
        assert np.array_equal(bundle.dB, ref_db)
        assert np.array_equal(bundle.jump_counts, ref_counts)
        assert bundle.dB.flags.f_contiguous and bundle.jump_counts.flags.c_contiguous
        assert bundle.jump_counts.dtype == np.int16
        assert not (bundle.dB.flags.writeable or bundle.jump_counts.flags.writeable)

    def test_platform_without_affinity_set_draws_in_the_caller(self, fork_seams, monkeypatch):
        set_seams, forks = fork_seams
        set_seams(4, 10_000)
        monkeypatch.delattr(os, "sched_getaffinity")
        bundle = sample_noise(GRID, ATOM, 500, 3)
        assert forks == []
        ref_db, ref_counts = per_path_reference(GRID, ATOM, 500, 3)
        assert np.array_equal(bundle.dB, ref_db) and np.array_equal(bundle.jump_counts, ref_counts)

    def test_failed_worker_raises(self, fork_seams, monkeypatch):
        # the failed chunks are drawn again in the caller, which raises what
        # the worker raised
        set_seams, forks = fork_seams
        set_seams(3, 10_000)
        real_draw = simulate._draw_paths

        def failing_in_worker(*args):
            if args[-2] > 0:
                raise MemoryError("worker out of memory")
            real_draw(*args)

        monkeypatch.setattr(simulate, "_draw_paths", failing_in_worker)
        with pytest.raises(MemoryError, match="worker out of memory"):
            sample_noise(GRID, ATOM, 600, 5)
        assert len(forks) == 2

    def test_chunk_of_a_failed_worker_is_drawn_in_the_caller(self, fork_seams, monkeypatch):
        # a failure that happens only in a child leaves the bundle of the serial draw
        set_seams, forks = fork_seams
        set_seams(3, 10_000)
        real_draw = simulate._draw_paths
        caller = os.getpid()

        def failing_in_a_child(*args):
            if os.getpid() != caller:
                os._exit(9)
            real_draw(*args)

        monkeypatch.setattr(simulate, "_draw_paths", failing_in_a_child)
        bundle = sample_noise(GRID, ATOM, 600, 5)
        assert len(forks) == 2
        ref_db, ref_counts = per_path_reference(GRID, ATOM, 600, 5)
        assert np.array_equal(bundle.dB, ref_db) and np.array_equal(bundle.jump_counts, ref_counts)

    def test_failure_in_the_caller_leaves_no_worker(self, fork_seams, monkeypatch):
        set_seams, forks = fork_seams
        set_seams(3, 10_000)
        real_draw = simulate._draw_paths

        def failing_in_caller(*args):
            if args[-2] == 0:
                raise ValueError("caller failed")
            real_draw(*args)

        monkeypatch.setattr(simulate, "_draw_paths", failing_in_caller)
        with pytest.raises(ValueError, match="caller failed"):
            sample_noise(GRID, ATOM, 600, 5)
        assert len(forks) == 2


class TestRunChunks:
    # on three CPUs these costs cut into chunks [0, 3), [3, 7) and [7, 12)
    COSTS = [4, 4, 4, 3, 3, 3, 3, 2, 2, 2, 3, 3]

    @pytest.mark.parametrize(
        "costs, cpus, bounds",
        [
            ([90] * 4 + [50] * 4 + [15] * 4, 2, [0, 3, 12]),
            ([90] * 4 + [50] * 4 + [15] * 4, 3, [0, 2, 5, 12]),
            ([100, 1, 1], 3, [0, 1, 2, 3]),
            ([1, 1, 100], 2, [0, 2, 3]),
            ([5, 5], 1, [0, 2]),
            # the equal path costs of sample_noise at N = 100
            ([100] * 1001, 3, [0, 334, 667, 1001]),
            ([100] * 2500, 2, [0, 1250, 2500]),
            ([100] * 2500, 4, [0, 625, 1250, 1875, 2500]),
        ],
    )
    def test_balanced_bounds(self, fork_seams, costs, cpus, bounds):
        # one chunk per CPU, each cut at the item boundary nearest an equal share, no chunk empty
        set_seams, _ = fork_seams
        set_seams(cpus, 1)
        assert simulate._chunk_bounds(costs) == bounds

    def test_failed_chunks_run_again_in_chunk_order(self, fork_seams):
        # every chunk but the caller's fails, in its child and again in the
        # caller: the call raises the failure of the first failed chunk
        set_seams, forks = fork_seams
        set_seams(3, 1)
        done = simulate.shared_zeros((12,), np.int8)

        def work(lo, hi):
            if lo:
                raise ValueError(f"chunk from {lo}")
            done[lo:hi] = 1

        with pytest.raises(ValueError, match="chunk from 3$"):
            simulate.run_chunks(work, self.COSTS)
        assert len(forks) == 2
        assert done.tolist() == [1] * 3 + [0] * 9

    def test_every_chunk_written_once(self, fork_seams):
        set_seams, forks = fork_seams
        set_seams(3, 1)
        hits = simulate.shared_zeros((12,), np.int64)

        def work(lo, hi):
            hits[lo:hi] += 1

        simulate.run_chunks(work, self.COSTS)
        assert len(forks) == 2
        assert hits.tolist() == [1] * 12


class TestBeside:
    """``beside`` runs a stage's calls in a helper thread exactly when the chunk rule cuts two
    items of the stage's path-steps into two chunks; the calls, their order and the error
    raised are the same either way, and no thread outlives the context."""

    @pytest.mark.parametrize(
        "cpus, floor, threaded",
        [(2, 100, True), (3, 1, True), (2, 101, False), (1, 1, False)],
    )
    def test_calls_in_order_in_the_thread_the_rule_picks(self, fork_seams, cpus, floor, threaded):
        set_seams, forks = fork_seams
        set_seams(cpus, floor)
        caller, before = threading.current_thread(), threading.active_count()
        calls = []
        with simulate.beside(lambda *args: calls.append((args, threading.current_thread())), 100) as put:
            for i in range(5):
                put(i, -i)
        assert [args for args, _ in calls] == [(i, -i) for i in range(5)]
        assert {thread is caller for _, thread in calls} == {not threaded}
        assert threading.active_count() == before and forks == []

    def test_every_call_once_in_order_under_fast_thread_switches(self, fork_seams):
        # a lost, repeated or reordered call through the queue breaks the sequence
        set_seams, _ = fork_seams
        set_seams(2, 1)
        calls, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for fail_at in (None, 7_000):

                def stage(i):
                    if i == fail_at:
                        raise ValueError(f"call {i}")
                    calls.append(i)

                calls.clear()
                raised = None
                try:
                    with simulate.beside(stage, 100) as put:
                        for i in range(10_000):
                            put(i)
                except ValueError as exc:
                    raised = str(exc)
                assert raised == (None if fail_at is None else f"call {fail_at}")
                assert calls == list(range(10_000 if fail_at is None else fail_at))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_stage_failure_raised_at_a_later_put(self, fork_seams, cpus):
        set_seams, _ = fork_seams
        set_seams(cpus, 1)
        before = threading.active_count()
        calls, puts = [], []

        def stage(i):
            if i == 2:
                raise ValueError("stage 2")
            calls.append(i)

        with pytest.raises(ValueError, match="stage 2"):
            with simulate.beside(stage, 100) as put:
                for i in range(1000):
                    put(i)
                    puts.append(i)
        # no call after the failed one runs; the caller stops within the two queued calls
        # and the one it was blocked on when the stage failed
        assert calls == [0, 1]
        assert puts == list(range(len(puts))) and len(puts) <= 6
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_earlier_stage_failure_raised_in_place_of_the_callers(self, fork_seams, cpus):
        # the caller fails after handing over call 1 but, in the helper thread, before
        # call 1 fails: call 1 comes first in call order, so its failure is raised
        set_seams, _ = fork_seams
        set_seams(cpus, 1)
        caller, before = threading.current_thread(), threading.active_count()
        handed_over = threading.Event()

        def stage(i):
            if i == 1:
                if threading.current_thread() is not caller:
                    handed_over.wait(timeout=10.0)
                raise ValueError("stage 1")

        with pytest.raises(ValueError, match="stage 1"):
            with simulate.beside(stage, 100) as put:
                put(0)
                put(1)
                handed_over.set()
                raise RuntimeError("caller after call 1")
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_caller_failure_after_the_handed_over_calls(self, fork_seams, cpus):
        set_seams, _ = fork_seams
        set_seams(cpus, 1)
        before = threading.active_count()
        calls = []
        with pytest.raises(RuntimeError, match="caller"):
            with simulate.beside(calls.append, 100) as put:
                put(0)
                put(1)
                raise RuntimeError("caller")
        assert calls == [0, 1]
        assert threading.active_count() == before


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

    @pytest.mark.parametrize(
        "shape", [(15,), (5,), (7, 10), (1, 10), (50, 15)], ids=["long", "short", "rows", "one-row", "wide"]
    )
    def test_open_loop_values_of_another_shape_refused(self, shape, monkeypatch):
        # (10,) or (50, 10) only: no step runs on values of another shape
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(simulate, "_euler_step", no_step)
        noise = sample_noise(TimeGrid(1.0, 10), LevyMeasure.empty(), 50, 3)
        with pytest.raises(ValueError, match=re.escape(f"{shape}, but the run needs (10,) or (50, 10)")):
            euler_forward(build_lq_coefficients(0.1), OpenLoopLaw(np.zeros(shape)), noise, 1.0)


class TestLinearClosedForm:
    def test_non_finite_site_is_that_of_the_euler_stepper(self):
        # the earliest step whose end state is not finite, then the lowest path
        noise = sample_noise(TimeGrid(1.0, 10), LevyMeasure.empty(), 4, 1)
        b0 = np.zeros((4, 10))
        b0[0, 5] = b0[1, 2] = np.inf
        with pytest.raises(NonFiniteState) as err:
            linear_closed_form(LinearCoefficients(b0=b0), noise, 1.0)
        assert (err.value.step, err.value.path) == (2, 1)

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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPathCsv:
    # paths.csv as a simulate run writes it
    def test_header_digits_and_roundtrip(self, run_ini):
        out = run_ini("simulate", "[grid]\nn_steps = 5\n[mc]\nn_paths = 3\nseed = 9\n[model]\natoms = -0.1:2.0\n")
        coeffs = build_lq_coefficients(0.1)
        noise = sample_noise(TimeGrid(1.0, 5), ATOM, 3, 9)
        pb = euler_forward(coeffs, OpenLoopLaw(np.zeros(5)), noise, 1.0)
        rows = read_csv(out / "paths.csv")
        assert rows[0] == ["path_id", "step", "t", "X", "u", "dB", "jump_sum"]
        # 5 step rows + 1 terminal row per path (csv_paths = 10 > 3 paths)
        assert len(rows) == 1 + 3 * 6
        # terminal state roundtrips at 17 significant digits
        terminal_row = rows[6]
        assert terminal_row[1] == "5"
        assert float(terminal_row[3]) == pb.X[0, -1]
        assert terminal_row[4:] == ["", "", ""]
        # step rows: every float at 17 significant digits, jump_sum = sum of zeta * count over atoms
        expected = [
            [str(i), format(t, ".17g")] + [format(v, ".17g") for v in (pb.X[0, i], pb.u[0, i], noise.dB[0, i])]
            + [format((noise.jump_counts[0, i] * ATOM.zetas).sum(), ".17g")]
            for i, t in enumerate(TimeGrid(1.0, 5).times()[:-1])
        ]
        assert [row[1:] for row in rows[1:6]] == expected
        assert noise.jump_counts[0].any()

    def test_max_paths_limit(self, run_ini):
        out = run_ini("simulate", "[grid]\nn_steps = 4\n[mc]\nn_paths = 10\n[model]\nfamily = custom-polynomial\n"
                      "u_cost = 0\nx0 = 0.0\n[output]\ncsv_paths = 2\n")
        rows = read_csv(out / "paths.csv")
        assert len(rows) == 1 + 2 * 5
        # without atoms jump_sum is 0 on every step row
        assert {row[6] for row in rows[1:] if row[1] != "4"} == {"0"}

    def test_zero_paths_writes_the_header_only(self, run_ini):
        out = run_ini("simulate", "[grid]\nn_steps = 4\n[mc]\nn_paths = 10\n[output]\ncsv_paths = 0\n")
        assert read_csv(out / "paths.csv") == [["path_id", "step", "t", "X", "u", "dB", "jump_sum"]]


class TestWriteCsv:
    def test_cells(self, tmp_path):
        floats = [0.1, 1.0 / 3.0, np.float64(np.pi), np.float64(-2.5e-300), np.nextafter(1.0, 2.0)]
        _write_csv(tmp_path / "w.csv", ["a", "b", "c", "d", "e"], [floats, [7, True, False, "", np.float64(1e300)]])
        rows = read_csv(tmp_path / "w.csv")
        assert rows[0] == ["a", "b", "c", "d", "e"]
        assert rows[1] == [format(float(v), ".17g") for v in floats]
        assert [float(cell) for cell in rows[1]] == [float(v) for v in floats]
        assert rows[2] == ["7", "True", "False", "", "1.0000000000000001e+300"]
