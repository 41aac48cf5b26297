"""Desk-scale stochastic gradient calculus on a closed family of functionals.

The family is generated by constants, Brownian integrals of deterministic
step integrands, compensated-jump integrals of step-in-time/per-atom
integrands, and smooth compositions.  Differentiation follows two rules:

* Brownian direction at time t: the derivative of an integral picks out the
  integrand value at t; compositions differentiate by the chain rule
  sum_i dPhi/dx_i(F) * D_t F_i.
* Jump direction at (t, zeta): the difference operator D F = F(omega + jump of
  size zeta at t) - F(omega); a jump integral picks out the integrand at
  (t, zeta) and compositions differentiate by Phi(F + D F) - Phi(F).

Conditional expectations given the time-t filtration are exact when the
derivative tree is deterministic, or when it is affine in its integral leaves
by the degree bound of ``tree_degree``: integrals of deterministic integrands
are martingales, so E[D F | F_t] is D F with every integral stopped at t.
Trees of higher or unknown degree are projected by polynomial least squares
on the time-t driving state.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .errors import InsufficientPaths, JumpDependentFunctional, NonAdaptedIntegrand, UnsupportedNode
from .model import LevyMeasure, TimeGrid
from .simulate import ROW_BLOCK, NoiseBundle, row_blocks, running_sum

# --------------------------------------------------------------------------
# Smooth maps


@dataclass(frozen=True, eq=False)
class SmoothMap:
    """A C^1 map R^m -> R carrying its gradient (and optionally its Hessian).

    ``fn`` and each gradient component act on a list of m equally shaped
    arrays and return one array of that shape.  ``hess`` is only needed to
    differentiate a Brownian chain-rule derivative a second time.
    ``degree`` maps the polynomial degrees of the m arguments to an upper
    bound on the degree of the composition; ``None`` marks a map that is
    not a polynomial.
    """

    fn: Callable[[list[np.ndarray]], np.ndarray]
    grad: Callable[[list[np.ndarray]], list[np.ndarray]] | None
    hess: Callable[[list[np.ndarray]], list[list[np.ndarray]]] | None = None
    name: str = "phi"
    arity: int = 1
    degree: Callable[[list[int]], int] | None = None


def square_map() -> SmoothMap:
    return SmoothMap(
        fn=lambda a: a[0] ** 2,
        grad=lambda a: [2.0 * a[0]],
        hess=lambda a: [[np.full_like(a[0], 2.0)]],
        name="square",
        arity=1,
        degree=lambda k: 2 * k[0],
    )


def affine_map(constant: float, weights: tuple[float, ...]) -> SmoothMap:
    w = tuple(float(c) for c in weights)

    def fn(a):
        out = np.full_like(a[0], float(constant))
        for wi, ai in zip(w, a):
            out = out + wi * ai
        return out

    return SmoothMap(
        fn=fn,
        grad=lambda a: [np.full_like(a[0], wi) for wi in w],
        hess=lambda a: [[np.zeros_like(a[0]) for _ in w] for _ in w],
        name="affine",
        arity=len(w),
        degree=lambda k: max(k, default=0),
    )


def product_map() -> SmoothMap:
    return SmoothMap(
        fn=lambda a: a[0] * a[1],
        grad=lambda a: [a[1], a[0]],
        hess=lambda a: [
            [np.zeros_like(a[0]), np.ones_like(a[0])],
            [np.ones_like(a[0]), np.zeros_like(a[0])],
        ],
        name="product",
        arity=2,
        degree=lambda k: k[0] + k[1],
    )


def _chain_sum_map(phi: SmoothMap) -> SmoothMap:
    """Map (x, y) -> sum_i dPhi/dx_i(x) y_i over doubled arguments."""
    if phi.grad is None:
        raise UnsupportedNode(f"map {phi.name!r} carries no gradient")
    m = phi.arity

    def fn(a):
        xs, ys = a[:m], a[m:]
        grads = phi.grad(xs)
        out = np.zeros_like(a[0])
        for gi, yi in zip(grads, ys):
            out = out + gi * yi
        return out

    grad = None
    if phi.hess is not None:

        def grad(a):
            xs, ys = a[:m], a[m:]
            H = phi.hess(xs)
            gx = [sum(H[i][j] * ys[i] for i in range(m)) for j in range(m)]
            return gx + list(phi.grad(xs))

    degree = None
    if phi.degree is not None:

        def degree(k):
            # dPhi/dx_i takes one factor x_i off each monomial, and y_i takes its place
            return max(phi.degree(k[:m]) - k[i] + k[m + i] for i in range(m))

    return SmoothMap(fn=fn, grad=grad, name=f"d({phi.name})", arity=2 * m, degree=degree)


def _difference_map(phi: SmoothMap) -> SmoothMap:
    """Map (x, y) -> Phi(x + y) - Phi(x) over doubled arguments."""
    m = phi.arity

    def fn(a):
        xs, ys = a[:m], a[m:]
        shifted = [x + y for x, y in zip(xs, ys)]
        return phi.fn(shifted) - phi.fn(xs)

    grad = None
    if phi.grad is not None:

        def grad(a):
            xs, ys = a[:m], a[m:]
            shifted = [x + y for x, y in zip(xs, ys)]
            gs = phi.grad(shifted)
            g0 = phi.grad(xs)
            return [gs[i] - g0[i] for i in range(m)] + list(gs)

    degree = None
    if phi.degree is not None:

        def degree(k):
            # every term of Phi(x + y) - Phi(x) has at least one factor y_i in place of x_i
            top = [max(kx, ky) for kx, ky in zip(k[:m], k[m:])]
            return max(phi.degree(top) - top[i] + k[m + i] for i in range(m))

    return SmoothMap(fn=fn, grad=grad, name=f"jump-d({phi.name})", arity=2 * m, degree=degree)


# --------------------------------------------------------------------------
# Functional trees


@dataclass(frozen=True, eq=False)
class Constant:
    value: float


def _freeze_values(leaf, shape: tuple[int, ...], per: str) -> None:
    """Store the leaf's integrand as a read-only float array of the given shape, all finite."""
    values = np.ascontiguousarray(np.asarray(leaf.values, dtype=float))
    if values.shape != shape:
        raise ValueError(f"integrand must carry one value per {per}")
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand values must be finite")
    values.flags.writeable = False
    object.__setattr__(leaf, "values", values)


@dataclass(frozen=True, eq=False)
class BMIntegral:
    """int_0^T h(t) dB(t) with h a deterministic step function on the grid."""

    grid: TimeGrid
    values: np.ndarray  # (N,), value of h on [t_i, t_{i+1})

    def __post_init__(self):
        _freeze_values(self, (self.grid.n_steps,), "grid step")


@dataclass(frozen=True, eq=False)
class JumpIntegral:
    """int_0^T int psi(t, zeta) compensated-N(dt, dzeta), psi a step function over atoms."""

    grid: TimeGrid
    levy: LevyMeasure
    values: np.ndarray  # (N, K), value of psi(t_i, zeta_k)

    def __post_init__(self):
        _freeze_values(self, (self.grid.n_steps, self.levy.n_atoms), "(step, atom)")


@dataclass(frozen=True, eq=False)
class Compose:
    phi: SmoothMap
    children: tuple["WienerFunctional", ...]

    def __post_init__(self):
        if len(self.children) != self.phi.arity:
            raise ValueError(f"map {self.phi.name!r} takes {self.phi.arity} arguments")


WienerFunctional = Union[Constant, BMIntegral, JumpIntegral, Compose]


@dataclass(frozen=True)
class Brownian:
    """Differentiation direction along the Brownian driver at time t."""

    t: float


@dataclass(frozen=True)
class Jump:
    """Differentiation direction along the jump driver at (t, zeta)."""

    t: float
    zeta: float


def constant(value: float) -> Constant:
    return Constant(float(value))


def bm_integral(grid: TimeGrid, values) -> BMIntegral:
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        values = np.full(grid.n_steps, float(values))
    return BMIntegral(grid, values)


def jump_integral(grid: TimeGrid, levy: LevyMeasure, values) -> JumpIntegral:
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        values = np.full((grid.n_steps, levy.n_atoms), float(values))
    elif values.ndim == 1 and values.shape[0] == levy.n_atoms:
        values = np.tile(values, (grid.n_steps, 1))
    return JumpIntegral(grid, levy, values)


def _leaves(F: WienerFunctional):
    """The non-composite nodes of the tree, depth first; an unknown node kind raises."""
    if isinstance(F, Compose):
        for c in F.children:
            yield from _leaves(c)
    elif isinstance(F, (Constant, BMIntegral, JumpIntegral)):
        yield F
    else:
        raise UnsupportedNode(f"no rule for node {type(F).__name__}")


def tree_grid(F: WienerFunctional) -> TimeGrid | None:
    """The common grid of the stochastic leaves, or None for deterministic trees."""
    grids = [leaf.grid for leaf in _leaves(F) if isinstance(leaf, (BMIntegral, JumpIntegral))]
    if any(g != grids[0] for g in grids[1:]):
        raise ValueError("children live on different grids")
    return grids[0] if grids else None


def is_deterministic(F: WienerFunctional) -> bool:
    return all(isinstance(leaf, Constant) for leaf in _leaves(F))


def has_jump_nodes(F: WienerFunctional) -> bool:
    return any(isinstance(leaf, JumpIntegral) for leaf in _leaves(F))


def tree_degree(F: WienerFunctional) -> int | None:
    """Upper bound on the polynomial degree of F in its integral leaves.

    Constants have degree 0 and integrals degree 1; a composition takes its
    map's bound.  ``None`` means some map on the way is not a polynomial.
    """
    if isinstance(F, Compose):
        degrees = [tree_degree(c) for c in F.children]
        if F.phi.degree is None or None in degrees:
            return None
        return F.phi.degree(degrees)
    if isinstance(F, Constant):
        return 0
    if isinstance(F, (BMIntegral, JumpIntegral)):
        return 1
    raise UnsupportedNode(f"no rule for node {type(F).__name__}")


def _check_leaf(F: BMIntegral | JumpIntegral, bundle: NoiseBundle) -> None:
    """Raise unless the integral leaf lives on the bundle's grid and atoms."""
    if isinstance(F, BMIntegral):
        if F.values.shape[0] != bundle.grid.n_steps:
            raise ValueError("functional grid does not match the bundle grid")
        return
    if F.values.shape != (bundle.grid.n_steps, bundle.levy.n_atoms):
        raise ValueError("functional grid/atoms do not match the bundle")
    if not np.allclose(F.levy.zetas, bundle.levy.zetas):
        raise ValueError("functional atoms do not match the bundle atoms")


def evaluate(F: WienerFunctional, bundle: NoiseBundle, _memo: dict | None = None) -> np.ndarray:
    """Pathwise value of the functional on a noise bundle, shape (n_paths,).

    ``_memo`` (keyed by node identity, valid for one bundle) lets callers
    that evaluate many derivative trees sharing subtrees reuse leaf values.
    Entries pin the node object so recycled ids cannot alias.
    """
    if _memo is not None:
        hit = _memo.get(id(F))
        if hit is not None and hit[0] is F:
            return hit[1]
    if isinstance(F, Constant):
        out = np.full(bundle.n_paths, F.value)
    elif isinstance(F, BMIntegral):
        _check_leaf(F, bundle)
        out = np.concatenate([block @ F.values for block in row_blocks(bundle.dB)])
    elif isinstance(F, JumpIntegral):
        _check_leaf(F, bundle)
        blocks = (bundle.compensated_counts(s, s + ROW_BLOCK) for s in range(0, bundle.n_paths, ROW_BLOCK))
        out = np.concatenate([np.einsum("pik,ik->p", comp, F.values) for comp in blocks])
    elif isinstance(F, Compose):
        out = F.phi.fn([evaluate(c, bundle, _memo) for c in F.children])
    else:
        raise UnsupportedNode(f"cannot evaluate node {type(F).__name__}")
    if _memo is not None:
        _memo[id(F)] = (F, out)
    return out


def _running_path(leaf: BMIntegral | JumpIntegral, bundle: NoiseBundle, memo: dict) -> np.ndarray:
    """The integral stopped at every grid node, built once per memo: the
    ``running_sum`` of its step increments, (n_paths, N+1), step-major."""
    key = ("running", id(leaf))
    hit = memo.get(key)
    if hit is not None and hit[0] is leaf:
        return hit[1]
    _check_leaf(leaf, bundle)
    out = np.empty((bundle.n_paths, bundle.grid.n_steps + 1), order="F")
    if isinstance(leaf, BMIntegral):
        np.multiply(leaf.values, bundle.dB, out=out[:, 1:])
    else:
        # The counts are path-major; a block of ROW_BLOCK paths at a time keeps
        # the transposing product in cache, with the bits of one einsum.
        for start in range(0, bundle.n_paths, ROW_BLOCK):
            stop = start + ROW_BLOCK
            np.einsum("pik,ik->pi", bundle.compensated_counts(start, stop), leaf.values, out=out[start:stop, 1:])
    memo[key] = (leaf, running_sum(out))
    return out


def _stopped_value(F: WienerFunctional, bundle: NoiseBundle, node: int, memo: dict) -> np.ndarray:
    """Pathwise value of F with every integral stopped at grid node ``node``."""
    if isinstance(F, Compose):
        return F.phi.fn([_stopped_value(c, bundle, node, memo) for c in F.children])
    if isinstance(F, Constant):
        return np.full(bundle.n_paths, F.value)
    return _running_path(F, bundle, memo)[:, node]


def hm_derivative(F: WienerFunctional, direction: Brownian | Jump) -> WienerFunctional:
    """Stochastic gradient of F in the given direction, as a new tree.

    The direction chooses the leaf kind whose integrand value it picks out and
    the composition rule; every other leaf differentiates to zero.  An adapted
    tree (all integrands supported on [0, s]) differentiates to zero in any
    direction with t > s, because the picked-out integrand value vanishes there.
    """
    grid = tree_grid(F)
    if grid is None:
        return Constant(0.0)
    i = grid.step_of(direction.t)
    if isinstance(direction, Brownian):
        leaf, rule, pick = BMIntegral, _chain_sum_map, lambda node: node.values[i]
    else:
        leaf, rule = JumpIntegral, _difference_map
        pick = lambda node: node.values[i, node.levy.atom_index(direction.zeta)]

    def derive(node: WienerFunctional) -> WienerFunctional:
        if isinstance(node, leaf):
            return Constant(float(pick(node)))
        if not isinstance(node, Compose):
            return Constant(0.0)
        d_children = tuple(derive(c) for c in node.children)
        if all(isinstance(d, Constant) and d.value == 0.0 for d in d_children):
            return Constant(0.0)
        return Compose(rule(node.phi), node.children + d_children)

    return derive(F)


# --------------------------------------------------------------------------
# Conditional expectation by polynomial least squares


# Total degree of the one regression basis (fixed-basis least squares, as in
# Gobet, Lemor & Warin, Ann. Appl. Probab. 15(3), 2005).
DEGREE = 3


@functools.lru_cache(maxsize=None)
def _design_plan(n_features: int) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """Exponent tuples of total degree <= DEGREE in lexicographic order, and
    how ``design`` builds every column after the constant one: (j, source, c)
    writes x_c^p = x_c^(p-1) * x_c into column j from column source, that of
    x_c^(p-1); (j, sources, None) writes the product of the pure-power columns
    ``sources`` taken left to right.  In lexicographic order every column a
    term reads comes before it."""
    powers = itertools.product(range(DEGREE + 1), repeat=n_features)
    exps = tuple(exp for exp in powers if sum(exp) <= DEGREE)
    column = {exp: j for j, exp in enumerate(exps)}

    def pure(c: int, p: int) -> int:
        return column[tuple(p if k == c else 0 for k in range(n_features))]

    steps = []
    for j, exp in enumerate(exps[1:], start=1):
        used = [(c, p) for c, p in enumerate(exp) if p]
        if len(used) == 1:
            c, p = used[0]
            steps.append((j, pure(c, p - 1), c))
        else:
            steps.append((j, tuple(pure(c, p) for c, p in used), None))
    return exps, tuple(steps)


class PolynomialBasis:
    """Monomials of total degree <= ``DEGREE`` in the feature columns."""

    def design(self, features: np.ndarray) -> np.ndarray:
        """The C-ordered (n, dimension) design, each monomial written straight
        into its column by repeated multiplication, as ``_design_plan`` says."""
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[:, None]
        exps, steps = _design_plan(features.shape[1])
        A = np.empty((features.shape[0], len(exps)))
        A[:, 0] = 1.0
        for j, source, c in steps:
            if c is not None:
                np.multiply(A[:, source], features[:, c], out=A[:, j])
                continue
            np.multiply(A[:, source[0]], A[:, source[1]], out=A[:, j])
            for k in source[2:]:
                np.multiply(A[:, j], A[:, k], out=A[:, j])
        return A

    def dimension(self, n_features: int) -> int:
        return math.comb(n_features + DEGREE, DEGREE)


_BASIS = PolynomialBasis()


@dataclass
class ConditionalFit:
    """Fitted conditional expectation on the cubic basis, reusable out of sample."""

    coeffs: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    rank_deficient: bool = False
    fitted: np.ndarray | None = None  # values on the training sample

    def __call__(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[:, None]
        z = (features - self.feature_mean) / self.feature_scale
        return _BASIS.design(z) @ self.coeffs


class StateProjector:
    """Least-squares projection onto the cubic basis in the features of one state sample.

    The features (one column, or two) are standardized per column and
    expanded into every monomial of total degree <= ``DEGREE``: 4 columns for
    one feature, 10 for two.  A sample needs at least that many columns plus
    10 paths, else ``InsufficientPaths``.  Standardization, design, Gram
    matrix and rank check happen once; a trace-scaled ridge
    (lambda = 1e-8 tr(A'A)/m) replaces the plain solve when the design is
    rank-deficient.  Each ``fit`` solves one target on
    that Gram matrix, bit-identical to fitting the target alone.
    """

    def __init__(self, features: np.ndarray):
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[:, None]
        n, dim = features.shape[0], _BASIS.dimension(features.shape[1])
        if n < dim + 10:
            raise InsufficientPaths(f"{n} paths for a {dim}-dimensional basis (need >= {dim + 10})")
        self.feature_mean = features.mean(axis=0)
        self.feature_scale = features.std(axis=0)
        self.feature_scale[self.feature_scale == 0.0] = 1.0
        self.design = _BASIS.design((features - self.feature_mean) / self.feature_scale)
        # Normal equations on the standardized design; the tiny Gram solve is
        # far cheaper than a tall-matrix SVD at these path counts.
        gram = self.design.T @ self.design
        self.rank_deficient = bool(np.linalg.matrix_rank(gram, hermitian=True) < dim)
        if self.rank_deficient:
            gram = gram + 1e-8 * np.trace(gram) / dim * np.eye(dim)
        self._gram = gram

    def fit(self, values: np.ndarray) -> ConditionalFit:
        """Fit of one target, one value per path of the state sample."""
        coeffs = np.linalg.solve(self._gram, self.design.T @ np.asarray(values, dtype=float))
        return ConditionalFit(
            coeffs=coeffs,
            feature_mean=self.feature_mean,
            feature_scale=self.feature_scale,
            rank_deficient=self.rank_deficient,
            fitted=self.design @ coeffs,
        )


def state_features(bundle: NoiseBundle, node: int) -> np.ndarray:
    """Driving-state features at a grid node: Brownian value, plus the
    compensated jump value whenever the model carries atoms."""
    if not bundle.levy.n_atoms:
        return bundle.brownian()[:, node]
    return np.column_stack((bundle.brownian()[:, node], bundle.compensated_jump_path()[:, node]))


def conditional_derivative(
    F: WienerFunctional, bundle: NoiseBundle, step: int, mode: str, _memo: dict | None = None
) -> np.ndarray:
    """Per-path E[D F | F_{t_i}] for the directions anchored at node t_i.

    ``brownian`` mode returns shape (n_paths,); ``jump`` mode returns one
    column per atom of the bundle, shape (n_paths, K).  The result is exact
    when the derivative tree is deterministic or of degree <= 1 by
    ``tree_degree``: such a tree is an affine function of integrals with
    deterministic integrands, which are martingales, so it is evaluated with
    every integral stopped at node i (each integral's running path is built
    once, in ``_memo`` when given).  Any other tree is projected onto
    polynomial features of the time-t_i driving state, through one
    projector per step shared by every atom.
    """
    t = bundle.grid.times()[step]
    if mode == "brownian":
        directions = [Brownian(t)]
    elif mode == "jump":
        directions = [Jump(t, float(zeta)) for zeta in bundle.levy.zetas]
    else:
        raise ValueError(f"mode must be 'brownian' or 'jump', got {mode!r}")
    out = np.empty((bundle.n_paths, len(directions)))
    memo = {} if _memo is None else _memo
    projector = None
    for k, direction in enumerate(directions):
        d = hm_derivative(F, direction)
        if is_deterministic(d) or tree_degree(d) in (0, 1):
            vals = _stopped_value(d, bundle, step, memo)
        else:
            if projector is None:
                projector = StateProjector(state_features(bundle, step))
            vals = projector.fit(evaluate(d, bundle, memo)).fitted
        out[:, k] = vals
    return out[:, 0] if mode == "brownian" else out


# --------------------------------------------------------------------------
# Duality and martingale reconstruction


@dataclass
class DualityReport:
    """Two Monte Carlo sides of a duality identity plus the pass verdict."""

    lhs: float
    rhs: float
    se_lhs: float
    se_rhs: float
    n_paths: int
    seed: int
    mode: str
    verdict: bool = field(init=False)

    def __post_init__(self):
        self.verdict = bool(abs(self.lhs - self.rhs) <= 3.0 * (self.se_lhs + self.se_rhs))


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single value)."""
    n = values.shape[0]
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _probe_adapted(integrand, bundle: NoiseBundle, reference: np.ndarray) -> None:
    """Raise unless the integrand is unchanged on the past when the future is perturbed.

    The value on [t_i, t_{i+1}) may only use increments before step i, so
    perturbing every increment from step i on must leave values at steps
    <= i untouched.  The probes share one copy of ``dB`` and ``jump_counts``,
    and compare with ``reference`` one ``ROW_BLOCK`` of paths at a time.
    """
    n_steps = bundle.grid.n_steps
    # One copy of the noise serves every probe.  Latest step first, each probe
    # adds 1 to the increments it newly perturbs, so the probe at step i sees
    # every increment from step i on raised by 1 and every earlier one as drawn.
    dB, counts = bundle.dB.copy(order="K"), bundle.jump_counts.copy()
    dB_seen, counts_seen = dB.view(), counts.view()
    dB_seen.flags.writeable = counts_seen.flags.writeable = False
    perturbed = n_steps
    for i in sorted({0, n_steps // 2, n_steps - 1}, reverse=True):
        dB[:, i:perturbed] += 1.0
        counts[:, i:perturbed] += 1
        perturbed = i
        probe = np.asarray(integrand(replace(bundle, dB=dB_seen, jump_counts=counts_seen)), dtype=float)
        past, seen = probe[:, : i + 1], reference[:, : i + 1]
        starts = range(0, past.shape[0], ROW_BLOCK)
        if past.shape != seen.shape or not all(
            np.array_equal(past[s : s + ROW_BLOCK], seen[s : s + ROW_BLOCK]) for s in starts
        ):
            raise NonAdaptedIntegrand(f"integrand value at or before step {i} depends on increments from step {i} on")


def _bundle_grid(F: WienerFunctional, noise: NoiseBundle) -> TimeGrid:
    """The bundle's grid, after checking that F's stochastic leaves live on it."""
    grid = tree_grid(F)
    if grid is not None and grid != noise.grid:
        raise ValueError(f"functional grid {grid} does not match the bundle grid {noise.grid}")
    return noise.grid


def check_duality_mode(mode: str, levy: LevyMeasure) -> None:
    """A duality mode is 'brownian', or 'jump' on a measure with at least one atom."""
    if mode not in ("brownian", "jump"):
        raise ValueError(f"mode must be 'brownian' or 'jump', got {mode!r}")
    if mode == "jump" and levy.n_atoms == 0:
        raise ValueError("jump-mode duality needs at least one atom")


def check_duality(F: WienerFunctional, integrand, mode: str, noise: NoiseBundle) -> DualityReport:
    """Monte Carlo comparison of E[F * int phi dDriver] with the dual side
    E[int E[D F | F_t] phi d(t x measure)] on the noise bundle.

    ``integrand`` maps a noise bundle to adapted step values: shape
    (n_paths, N) in Brownian mode, (n_paths, N, K) in jump mode.  Adaptedness
    is enforced by a dependence probe on perturbed bundles, which copies
    ``dB`` and ``jump_counts`` once.  F's stochastic leaves must live on the
    bundle's grid.  The left side's driver is formed one ``ROW_BLOCK`` of
    paths at a time, after the probe.
    """
    levy, n_paths, n_steps = noise.levy, noise.n_paths, noise.grid.n_steps
    check_duality_mode(mode, levy)
    # Brownian mode is one channel of weight 1 driven by dB; jump mode has one
    # channel per atom, weighted by its intensity and driven by compensated counts.
    # ``driver(start, stop)`` is the driver of the paths [start, stop).
    if mode == "brownian":
        shape, weights, driver = (n_paths, n_steps), np.ones(1), lambda start, stop: noise.dB[start:stop, :, None]
        wanted = "Brownian integrand must have shape (n_paths, N)"
    else:
        shape, weights, driver = (n_paths, n_steps, levy.n_atoms), levy.intensities, noise.compensated_counts
        wanted = "jump integrand must have shape (n_paths, N, K)"
    dt = _bundle_grid(F, noise).dt

    phi = np.asarray(integrand(noise), dtype=float)
    if phi.shape != shape:
        raise ValueError(f"{wanted}, got {phi.shape}")
    _probe_adapted(integrand, noise, phi)
    phi = phi.reshape(n_paths, n_steps, -1)

    memo: dict = {}
    integral = np.empty(n_paths)  # per path, sum over steps and channels of phi times the driver
    for start in range(0, n_paths, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        # the product is C-ordered whatever the integrand's layout, so its per-path sum has one set of bits
        product = np.multiply(phi[rows], driver(start, rows.stop), out=np.empty(phi[rows].shape))
        integral[rows] = product.sum(axis=(1, 2))
    lhs_vals = evaluate(F, noise, memo) * integral
    rhs_vals = np.zeros(n_paths)
    for i in range(n_steps):
        cond = conditional_derivative(F, noise, i, mode, _memo=memo).reshape(n_paths, -1)
        for k, weight in enumerate(weights):
            rhs_vals += cond[:, k] * phi[:, i, k] * weight * dt

    lhs, se_lhs = mean_se(lhs_vals)
    rhs, se_rhs = mean_se(rhs_vals)
    return DualityReport(lhs=lhs, rhs=rhs, se_lhs=se_lhs, se_rhs=se_rhs, n_paths=n_paths, seed=noise.seed, mode=mode)


@dataclass
class ClarkOconeReport:
    """Martingale-representation reconstruction diagnostics."""

    l2_error: float
    mean_value: float
    n_paths: int
    seed: int


def clark_ocone_reconstruct(F: WienerFunctional, noise: NoiseBundle):
    """Rebuild F as mean(F) + sum_i E[D_{t_i} F | F_{t_i}] dB_i per path.

    Covers the Brownian filtration only: trees containing jump integrals are
    rejected, and so is a bundle that carries atoms.  F's stochastic leaves
    must live on the bundle's grid.  Returns the report, whose error is the
    squared-L2 ratio E[(F - Fhat)^2]/E[F^2], and the per-path values of F
    and of the reconstruction.
    """
    if has_jump_nodes(F):
        raise JumpDependentFunctional("reconstruction is defined for Brownian functionals only")
    if noise.levy.n_atoms:
        raise ValueError("reconstruction needs a Brownian bundle without atoms")
    grid = _bundle_grid(F, noise)
    memo: dict = {}
    f_vals = evaluate(F, noise, memo)
    recon = np.full(noise.n_paths, f_vals.mean())
    for i in range(grid.n_steps):
        cond = conditional_derivative(F, noise, i, "brownian", _memo=memo)
        recon += cond * noise.dB[:, i]
    denom = float(np.mean(f_vals**2))
    err = float(np.mean((f_vals - recon) ** 2) / denom) if denom > 0.0 else 0.0
    report = ClarkOconeReport(l2_error=err, mean_value=float(f_vals.mean()), n_paths=noise.n_paths, seed=noise.seed)
    return report, f_vals, recon
