"""Controlled jump-diffusion model data: time grid, jump measure, coefficients, control laws.

Coefficient maps follow a single calling convention: ``b(t, x, u)``,
``sigma(t, x, u)``, ``f(t, x, u)`` and their partials take a time ``t``
plus numpy arrays (or scalars) ``x`` and ``u`` of a common broadcast shape
and return an array of that shape; ``gamma(t, x, u, zeta)`` and its partials
additionally take one scalar jump size ``zeta``; ``g(x)`` and ``g_x(x)``
take the terminal state only.  All maps must be pure and elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Lower margin for 1 + dgamma/dx: the closed forms divide by it and take
# its log, so the jump-size bound gamma >= -1 is strengthened to a strict
# positive distance from the singularity.
DELTA_SING = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N steps and N+1 nodes."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 2:
            raise ValueError(f"n_steps must be an integer >= 2, got {self.n_steps}")
        # N * dt must reproduce T up to a few ulps.
        if abs(self.n_steps * self.dt - self.horizon) > 8 * math.ulp(self.horizon):
            raise ValueError("n_steps * dt does not reproduce the horizon")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        """Node times t_0 = 0, ..., t_N = T."""
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def step_of(self, t: float) -> int:
        """Index i of the step interval [t_i, t_{i+1}) containing t.

        t = T maps to the last step (left-limit convention).  A tolerance of
        1e-9 * dt absorbs float rounding of grid-aligned times.
        """
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        i = int(np.searchsorted(self.times(), t + 1e-9 * self.dt, side="right")) - 1
        return min(max(i, 0), self.n_steps - 1)

    def window_steps(self, start: float, length: float) -> np.ndarray:
        """Boolean mask over steps whose interval meets [start, start+length).

        Realizes the spike window, of positive length, starting in [0, T) and ending by T, on
        the grid: step i is selected iff t_i < start + length and t_{i+1} > start, with a
        1e-9 * dt tolerance so that grid-aligned windows select exactly the expected steps.
        A window that selects no step is refused.
        """
        tol = 1e-9 * self.dt
        if not (length > 0.0 and 0.0 <= start < self.horizon and start + length <= self.horizon + tol):
            raise ValueError(f"window [{start}, {start} + {length}) needs a positive length inside [0, {self.horizon}]")
        times = self.times()
        window = (times[:-1] < start + length - tol) & (times[1:] > start + tol)
        if not window.any():
            raise ValueError(f"window [{start}, {start} + {length}) meets no step of the grid (dt = {self.dt})")
        return window


@dataclass(frozen=True)
class LevyMeasure:
    """Finite-atom jump measure: a list of (jump size, intensity) pairs."""

    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for zeta, lam in self.atoms:
            if not (math.isfinite(zeta) and zeta != 0.0):
                raise ValueError(f"jump size must be finite and nonzero, got {zeta}")
            if not (math.isfinite(lam) and lam >= 0.0):
                raise ValueError(f"intensity must be finite and >= 0, got {lam}")
        # Jump directions are addressed by size, so no two sizes may match in atom_index.
        for k, (zeta, _) in enumerate(self.atoms):
            if self.atom_index(zeta) != k:
                raise ValueError(f"jump size {zeta} repeats an earlier atom; atom sizes must be distinct")

    @classmethod
    def empty(cls) -> "LevyMeasure":
        return cls(())

    @classmethod
    def from_pairs(cls, pairs) -> "LevyMeasure":
        return cls(tuple((float(z), float(l)) for z, l in pairs))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def zetas(self) -> np.ndarray:
        return np.array([z for z, _ in self.atoms], dtype=float)

    @property
    def intensities(self) -> np.ndarray:
        return np.array([l for _, l in self.atoms], dtype=float)

    def atom_index(self, zeta: float) -> int:
        """Index of the first atom whose size matches ``zeta`` to a relative 1e-12."""
        for k, (z, _) in enumerate(self.atoms):
            if np.isclose(z, zeta, rtol=1e-12, atol=0.0):
                return k
        raise ValueError(f"jump size {zeta} is not an atom of this measure")


CoeffMap = Callable[..., np.ndarray]


@dataclass(frozen=True)
class ControlledCoefficients:
    """Evaluation maps of the controlled system and their partials.

    Partials are supplied with the maps and taken as given;
    ``polynomial_coefficients`` derives them exactly.  Maps must broadcast
    elementwise: partials are evaluated over whole (path, step) arrays, with
    ``t`` of shape (1, N) against ``x`` and ``u`` of shape (n_paths, N), and
    may return read-only broadcast views (``like``) that callers copy first.
    """

    b: CoeffMap
    sigma: CoeffMap
    gamma: CoeffMap
    f: CoeffMap
    g: CoeffMap
    b_x: CoeffMap
    b_u: CoeffMap
    sigma_x: CoeffMap
    sigma_u: CoeffMap
    gamma_x: CoeffMap
    gamma_u: CoeffMap
    f_x: CoeffMap
    f_u: CoeffMap
    g_x: CoeffMap
    control_set: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        if not self.control_set[0] <= self.control_set[1]:
            raise ValueError(f"control set bounds must satisfy lo <= hi, got {self.control_set}")

    def clamp(self, u):
        """Projection onto ``control_set``; the forward step applies it to every control value."""
        lo, hi = self.control_set
        return np.clip(u, lo, hi)

    def check_controls(self, values, what: str) -> None:
        """Raise ``ValueError`` unless every one of the scalar ``values`` lies in ``control_set``."""
        outside = [u for u in values if not self.control_set[0] <= u <= self.control_set[1]]
        if outside:
            raise ValueError(f"{what} {outside} outside the control set {self.control_set}")


class ControlLaw:
    """A control process: one value per path at each step.

    Laws do not clamp; ``euler_forward`` applies the model's control set.
    """

    def control_at(self, step: int, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class OpenLoopLaw(ControlLaw):
    """Per-step control values, constant on [t_i, t_{i+1}).

    ``values`` has shape (N,) shared by all paths or (n_paths, N);
    ``euler_forward`` refuses any other shape before its first step.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2):
            raise ValueError("open-loop values must be 1- or 2-dimensional")
        self.values = values

    def control_at(self, step, t, x):
        u = self.values[step] if self.values.ndim == 1 else self.values[:, step]
        return like(u, x, u)


class FeedbackLaw(ControlLaw):
    """Markovian feedback u = fn(step, t, x); ``step`` indexes the grid interval [t_step, t_step+1)."""

    def __init__(self, fn: Callable[[int, float, np.ndarray], np.ndarray]):
        self.fn = fn

    def control_at(self, step, t, x):
        u = self.fn(step, t, np.asarray(x, dtype=float))
        return like(u, x, u)


class SpikedLaw(ControlLaw):
    """Base law overridden by a fixed value on a window of steps; ``smp.spike_perturb`` builds it."""

    def __init__(self, base: ControlLaw, window: np.ndarray, spike_values):
        self.base = base
        self.window = np.asarray(window, dtype=bool)
        self.spike_values = spike_values

    def control_at(self, step, t, x):
        if self.window[step]:
            return like(self.spike_values, x, self.spike_values)
        return self.base.control_at(step, t, x)


def like(value, x, u) -> np.ndarray:
    """``value`` as a read-only float view broadcast to the common shape of ``x`` and ``u``."""
    shape = np.broadcast(np.asarray(x), np.asarray(u)).shape
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def _horner(c, x):
    """sum_k c[k] x**k by Horner's rule; zero coefficients are skipped, not added."""
    acc = c[-1]
    for ck in c[-2::-1]:
        acc = acc * x
        if ck:
            acc = ck + acc
    return acc


def _term_map(poly, slope=0.0, quad=0.0, scaled=False):
    """Map (t, x, u) -> poly(x) + slope u + quad u**2 broadcast over x and u; a ``scaled``
    map is (t, x, u, zeta) -> zeta times that.  A zero term is never evaluated, and a map
    constant in (x, u) returns a read-only ``like`` view."""
    c = tuple(np.trim_zeros(np.asarray(poly, dtype=float), "b"))
    if len(c) <= 1 and not slope and not quad:
        value = c[0] if c else 0.0
        return (lambda t, x, u, zeta: like(zeta * value, x, u)) if scaled else (lambda t, x, u: like(value, x, u))

    def ev(t, x, u):
        u = np.asarray(u, dtype=float)
        terms = [_horner(c, np.asarray(x, dtype=float))] if c else []
        if slope:
            terms.append(slope * u)
        if quad:
            terms.append(quad * u**2)
        return like(sum(terms[1:], terms[0]), x, u)

    return (lambda t, x, u, zeta: zeta * ev(t, x, u)) if scaled else ev


def polynomial_coefficients(
    b_poly=(),
    b_u=0.0,
    sigma_poly=(),
    sigma_u=0.0,
    gamma_poly=(),
    gamma_u=0.0,
    f_poly=(),
    f_u=0.0,
    u_cost=0.0,
    g_poly=(),
    control_set=(-math.inf, math.inf),
) -> ControlledCoefficients:
    """The one model form of every family; the control enters drift, diffusion and jumps:

        b = B(x) + b_u u,   sigma = S(x) + sigma_u u,   gamma = zeta (G(x) + gamma_u u),
        f = F(x) + f_u u - (u_cost / 2) u**2,   g = Gp(x),

    with B, S, G, F, Gp = ``b_poly``, ``sigma_poly``, ``gamma_poly``, ``f_poly``, ``g_poly``
    (constant term first) and exact partials (``polyder``).  Decided from the values at build
    time: a zero term is never evaluated, and a map or partial constant in (x, u) is a
    read-only ``like`` view."""
    coefficients = (b_poly, b_u, sigma_poly, sigma_u, gamma_poly, gamma_u, f_poly, f_u, u_cost, g_poly)
    if not all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in coefficients):
        raise ValueError(f"model coefficients must be finite, got {coefficients}")
    d = np.polynomial.polynomial.polyder
    payoff, payoff_x = _term_map(g_poly), _term_map(d(g_poly))
    return ControlledCoefficients(
        b=_term_map(b_poly, b_u),
        sigma=_term_map(sigma_poly, sigma_u),
        gamma=_term_map(gamma_poly, gamma_u, scaled=True),
        f=_term_map(f_poly, f_u, -0.5 * u_cost),
        g=lambda x: payoff(None, x, x),
        b_x=_term_map(d(b_poly)),
        b_u=_term_map((b_u,)),
        sigma_x=_term_map(d(sigma_poly)),
        sigma_u=_term_map((sigma_u,)),
        gamma_x=_term_map(d(gamma_poly), scaled=True),
        gamma_u=_term_map((gamma_u,), scaled=True),
        f_x=_term_map(d(f_poly)),
        f_u=_term_map((f_u,), -u_cost),
        g_x=lambda x: payoff_x(None, x, x),
        control_set=(float(control_set[0]), float(control_set[1])),
    )


def build_lq_coefficients(sigma: float, gamma_scale: float = 1.0) -> ControlledCoefficients:
    """Linear-quadratic model dX = u dt + sigma dB + gamma_scale zeta (dN - lam dt), reward
    -u^2/2, payoff -x^2/2, controls in [0, inf): the polynomial form with B = 0, b_u = 1,
    S = (sigma,), G = (gamma_scale,), u_cost = 1, Gp = (0, 0, -1/2)."""
    return polynomial_coefficients(
        b_u=1.0,
        sigma_poly=(sigma,),
        gamma_poly=(gamma_scale,),
        u_cost=1.0,
        g_poly=(0.0, 0.0, -0.5),
        control_set=(0.0, math.inf),
    )
