"""Derivative-free maximization of Bell expressions over x-z plane angles.

The search space is one angle per setting label (symmetric mode, the same
observable on every qubit) or one angle per (qubit, label) pair (free mode).
Every expression restricted to the x-z plane is a trigonometric polynomial.
``PlaneObjective`` reads it off the compiled form: each weighted subset of a
term's Walsh form expands over the cos (x) and sin (z) components of its
qubits' angles, weighted by the state's Pauli correlation tensor.  The
optimizer evaluates that polynomial over an exhaustive coarse grid, then
refines the best grid points with a shrinking coordinate search.  Everything
is deterministic: two runs with the same inputs give identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceededError, ConfigError, ContractViolationError
from .expressions import BellExpression, Binding
from .qcore import PAULI_AXES, Observable, StateVector
from . import states
from .argument import ArgumentReport, run_hardy_argument

SYMMETRIC_GRID_STEP = 0.02
FREE_GRID_STEP = 0.1
DEFAULT_BUDGET = 10**8
REFINE_TOLERANCE = 1e-6
TWO_PI = 2.0 * math.pi


class PlaneObjective:
    """Fast evaluator of an expression over x-z plane angles.

    Reduces the expression to atoms ``coefficient * prod_k comp(dim_k)``
    where each component is cos (x part) or sin (z part) of one search
    dimension.  Supports pointwise evaluation and full-grid evaluation with
    numpy broadcasting; both agree with the qcore evaluation route to
    floating point accuracy.
    """

    def __init__(self, expression: BellExpression, state: StateVector, mode: str):
        if mode not in ("symmetric", "free"):
            raise ConfigError(f"mode must be symmetric or free, got {mode!r}")
        if state.num_qubits != expression.num_qubits:
            raise ContractViolationError(
                f"{expression.num_qubits}-qubit expression applied to a "
                f"{state.num_qubits}-qubit state"
            )
        self.expression = expression
        self.state = state
        self.mode = mode

        pairs = expression.scheme.pairs()
        if mode == "symmetric":
            self.dims: tuple = tuple(dict.fromkeys(label for _, label in pairs))
            self._dim_of = {pair: self.dims.index(pair[1]) for pair in pairs}
        else:
            self.dims = pairs
            self._dim_of = {pair: i for i, pair in enumerate(pairs)}

        self.constant = 0.0
        self.atoms: list[tuple[float, tuple[tuple[int, str], ...]]] = []
        tensor = state.pauli_tensor
        for term in expression.terms:
            labels, walsh = term.payload.labels, term.payload.walsh
            scale = term.coefficient / walsh.denominator
            for subset, weight in walsh.weights:
                if not subset:
                    self.constant += scale * weight
                    continue
                for axes in product("xz", repeat=len(subset)):
                    index = [0] * expression.num_qubits
                    for qubit, axis in zip(subset, axes):
                        index[qubit - 1] = PAULI_AXES.index(axis)
                    entry = float(tensor[tuple(index)])
                    if abs(entry) < 1e-15:
                        continue
                    factors = tuple(
                        (self._dim_of[(qubit, labels[qubit - 1])], axis)
                        for qubit, axis in zip(subset, axes)
                    )
                    self.atoms.append((scale * weight * entry, factors))

    @property
    def num_dims(self) -> int:
        return len(self.dims)

    def value(self, angles: np.ndarray) -> float:
        cos = np.cos(angles)
        sin = np.sin(angles)
        total = self.constant
        for coefficient, factors in self.atoms:
            part = coefficient
            for dim, axis in factors:
                part *= cos[dim] if axis == "x" else sin[dim]
            total += part
        return float(total)

    def grid_values(self, axes: list[np.ndarray]) -> np.ndarray:
        if len(axes) != self.num_dims:
            raise ContractViolationError(
                f"expected {self.num_dims} axes, got {len(axes)}"
            )
        shape = tuple(len(axis) for axis in axes)
        cos = [np.cos(axis) for axis in axes]
        sin = [np.sin(axis) for axis in axes]
        ndim = len(axes)
        total = np.full(shape, self.constant)
        for coefficient, factors in self.atoms:
            part = np.array(coefficient)
            for dim, axis in factors:
                component = cos[dim] if axis == "x" else sin[dim]
                view_shape = [1] * ndim
                view_shape[dim] = -1
                part = part * component.reshape(view_shape)
            total += part
        return total

    def binding(self, angles: np.ndarray) -> Binding:
        return AnglePoint(self.mode, self.dims, tuple(float(a) for a in angles)).binding(
            self.expression.scheme
        )


@dataclass(frozen=True)
class AnglePoint:
    """A point of the angle search space, angles normalized to [0, 2 pi)."""

    mode: str
    dims: tuple
    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.angles):
            raise ContractViolationError("one angle per dimension required")
        object.__setattr__(
            self, "angles", tuple(float(a) % TWO_PI for a in self.angles)
        )

    def binding(self, scheme) -> Binding:
        mapping = {}
        if self.mode == "symmetric":
            by_label = dict(zip(self.dims, self.angles))
            for qubit, label in scheme.pairs():
                if label in by_label:
                    mapping[(qubit, label)] = Observable.xz_plane(by_label[label])
        else:
            for pair, angle in zip(self.dims, self.angles):
                mapping[pair] = Observable.xz_plane(angle)
        return Binding(mapping)

    def as_dict(self) -> dict[str, float]:
        keys = [
            dim if isinstance(dim, str) else f"q{dim[0]}:{dim[1]}"
            for dim in self.dims
        ]
        return dict(zip(keys, self.angles))


@dataclass(frozen=True)
class OptimizationResult:
    point: AnglePoint
    value: float
    grid_value: float
    grid_step: float
    evaluations: int

    def as_dict(self) -> dict:
        return {
            "mode": self.point.mode,
            "angles": self.point.as_dict(),
            "value": self.value,
            "grid_value": self.grid_value,
            "grid_step": self.grid_step,
            "evaluations": self.evaluations,
        }


@dataclass(frozen=True)
class CertificationResult:
    certified: bool
    bound: float
    maximum: OptimizationResult

    def as_dict(self) -> dict:
        return {
            "certified": self.certified,
            "bound": self.bound,
            "maximum": self.maximum.as_dict(),
        }


def _refine(
    objective: PlaneObjective,
    start: np.ndarray,
    start_value: float,
    initial_step: float,
    tolerance: float,
) -> tuple[np.ndarray, float, int]:
    """Shrinking coordinate search; never decreases the incumbent value."""
    current = np.array(start, dtype=float)
    best = start_value
    evaluations = 0
    step = initial_step
    while step >= tolerance:
        improved = False
        for dim in range(len(current)):
            for delta in (step, -step):
                trial = current.copy()
                trial[dim] = (trial[dim] + delta) % TWO_PI
                value = objective.value(trial)
                evaluations += 1
                if value > best:
                    best = value
                    current = trial
                    improved = True
        if not improved:
            step *= 0.5
    return current, best, evaluations


def maximize(
    expression: BellExpression,
    state: StateVector,
    mode: str = "symmetric",
    *,
    grid_step: float | None = None,
    budget: int = DEFAULT_BUDGET,
    refine_tolerance: float = REFINE_TOLERANCE,
) -> OptimizationResult:
    """Maximize an expression over x-z plane angles.

    An exhaustive coarse grid (default step 0.02 rad in symmetric mode,
    0.1 rad in free mode) locates the basin; a shrinking coordinate search
    refines it below ``refine_tolerance``.  Free mode additionally warm
    starts from the symmetric optimum, so the free result is never worse
    than the symmetric one.  Raises ConfigError for a grid step or refine
    tolerance that is not positive and finite or a budget below 1, and
    BudgetExceededError when the grid would need more than ``budget``
    evaluations.
    """
    step = grid_step if grid_step is not None else (
        SYMMETRIC_GRID_STEP if mode == "symmetric" else FREE_GRID_STEP
    )
    for name, value in (("grid step", step), ("refine tolerance", refine_tolerance)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    if not budget >= 1:
        raise ConfigError(f"budget must be at least 1, got {budget!r}")
    objective = PlaneObjective(expression, state, mode)
    per_axis = TWO_PI / step
    if per_axis > budget:  # also where a tiny step overflows the count
        raise BudgetExceededError(
            f"grid step {step} needs more than {budget} points per axis"
        )
    count = max(2, math.ceil(per_axis))
    points = count**objective.num_dims
    if points > budget:
        raise BudgetExceededError(
            f"grid of {points} points exceeds budget {budget} "
            f"({objective.num_dims} dimensions at step {step})"
        )
    axes = [np.linspace(0.0, TWO_PI, count, endpoint=False)] * objective.num_dims
    grid = objective.grid_values(axes)
    flat = int(np.argmax(grid))
    index = np.unravel_index(flat, grid.shape)
    grid_angles = np.array([axes[d][index[d]] for d in range(objective.num_dims)])
    grid_value = float(grid[index])
    evaluations = points

    candidates = [(grid_value, grid_angles, step)]
    if mode == "free":
        symmetric = maximize(
            expression,
            state,
            "symmetric",
            budget=budget,
            refine_tolerance=refine_tolerance,
        )
        evaluations += symmetric.evaluations
        by_label = dict(zip(symmetric.point.dims, symmetric.point.angles))
        embedded = np.array([by_label[label] for _, label in objective.dims])
        candidates.append((symmetric.value, embedded, SYMMETRIC_GRID_STEP))

    best_angles, best_value = None, -math.inf
    for start_value, start, start_step in candidates:
        refined, value, used = _refine(
            objective, start, start_value, start_step, refine_tolerance
        )
        evaluations += used
        if value > best_value:
            best_value, best_angles = value, refined

    point = AnglePoint(mode, objective.dims, tuple(float(a) for a in best_angles))
    return OptimizationResult(
        point=point,
        value=best_value,
        grid_value=grid_value,
        grid_step=step,
        evaluations=evaluations,
    )


def certify_below(
    expression: BellExpression,
    state: StateVector,
    bound: float,
    mode: str = "symmetric",
    *,
    grid_step: float | None = None,
    budget: int = DEFAULT_BUDGET,
    refine_tolerance: float = REFINE_TOLERANCE,
    tolerance: float = 1e-6,
) -> CertificationResult:
    """Certify that the grid-plus-refinement maximum stays below a bound."""
    result = maximize(
        expression,
        state,
        mode,
        grid_step=grid_step,
        budget=budget,
        refine_tolerance=refine_tolerance,
    )
    return CertificationResult(
        certified=result.value <= bound + tolerance,
        bound=bound,
        maximum=result,
    )


def _plus_eigenvector(theta: float) -> np.ndarray:
    half = math.pi / 4.0 - theta / 2.0
    return np.array([math.cos(half), math.sin(half)])


def _orthogonal(vector: np.ndarray) -> np.ndarray:
    return np.array([-vector[1], vector[0]])


def _angle_of_plus_eigenvector(vector: np.ndarray) -> float:
    v = vector / np.linalg.norm(vector)
    nx = 2.0 * v[0] * v[1]
    nz = v[0] ** 2 - v[1] ** 2
    return math.atan2(nz, nx) % TWO_PI


def _hardy_chain(theta: float, beta2: float) -> tuple[float, tuple[float, float, float, float]]:
    """Observable angles satisfying the sometimes-always-never chain exactly.

    For the state cos(theta)|++> + sin(theta)|--> and a free angle for b2,
    the three zero constraints of the chain (a1 = +1 forces b2 = +1,
    a2 = +1 forces b1 = +1, never b1 = b2 = +1) determine a1, b1 and a2
    uniquely, so (theta, beta2) parameterizes every chain configuration.
    Returns the chain's first probability and the four observable angles.
    """
    amplitude = np.array([[math.cos(theta), 0.0], [0.0, math.sin(theta)]])
    b2_plus = _plus_eigenvector(beta2)
    b2_minus = _orthogonal(b2_plus)

    chi_a = amplitude @ b2_minus
    a1_plus = _orthogonal(chi_a / np.linalg.norm(chi_a))
    chi_b = amplitude @ b2_plus
    b1_plus = _orthogonal(chi_b / np.linalg.norm(chi_b))
    b1_minus = _orthogonal(b1_plus)
    chi_c = amplitude.T @ b1_minus
    a2_plus = _orthogonal(chi_c / np.linalg.norm(chi_c))

    p1 = float(a1_plus @ amplitude @ a2_plus) ** 2
    angles = (
        _angle_of_plus_eigenvector(a1_plus),
        _angle_of_plus_eigenvector(b1_plus),
        _angle_of_plus_eigenvector(a2_plus),
        beta2 % TWO_PI,
    )
    return p1, angles


@dataclass(frozen=True)
class HardyOptimum:
    state_angle: float
    angles: tuple[float, float, float, float]
    value: float
    hardy_probability: float
    report: ArgumentReport
    evaluations: int

    def as_dict(self) -> dict:
        return {
            "state_angle": self.state_angle,
            "angles": dict(zip(("a1", "b1", "a2", "b2"), self.angles)),
            "value": self.value,
            "hardy_probability": self.hardy_probability,
            "report": self.report.as_dict(),
            "evaluations": self.evaluations,
        }


def hardy_maximum(
    *,
    state_angle: float | None = None,
    refine_tolerance: float = REFINE_TOLERANCE,
) -> HardyOptimum:
    """Maximize the sometimes-always-never chain's first probability.

    Searches jointly over the state angle in (0, pi/4] and the observable
    angles; the chain's three zero constraints pin four observable angles
    down to one free angle, so the search runs over (theta, beta2) and the
    remaining angles are recovered, not asserted.  Pass ``state_angle`` to
    restrict the search to one state; at pi/4 the maximum collapses to 0.
    The returned value is the ch catalog expression's middle term evaluated
    at the found configuration, which equals the chain's first probability
    because the constraint probabilities vanish.
    """
    theta_min = 1e-6
    if state_angle is None:
        thetas = np.linspace(0.005, math.pi / 4.0, 64)
    else:
        if not 0.0 < state_angle <= math.pi / 4.0:
            raise ConfigError(f"state angle {state_angle!r} outside (0, pi/4]")
        thetas = np.array([state_angle])
    betas = np.linspace(0.0, TWO_PI, 128, endpoint=False)

    best_value = -math.inf
    best = (float(thetas[0]), float(betas[0]))
    evaluations = 0
    for theta in thetas:
        for beta in betas:
            value, _ = _hardy_chain(float(theta), float(beta))
            evaluations += 1
            if value > best_value:
                best_value = value
                best = (float(theta), float(beta))

    def clamp_theta(value: float) -> float:
        return min(max(value, theta_min), math.pi / 4.0)

    current = list(best)
    step = 0.05
    while step >= refine_tolerance:
        improved = False
        moves: list[tuple[int, float]] = []
        if state_angle is None:
            moves += [(0, step), (0, -step)]
        moves += [(1, step), (1, -step)]
        for dim, delta in moves:
            trial = list(current)
            if dim == 0:
                trial[0] = clamp_theta(trial[0] + delta)
            else:
                trial[1] = (trial[1] + delta) % TWO_PI
            value, _ = _hardy_chain(trial[0], trial[1])
            evaluations += 1
            if value > best_value:
                best_value = value
                current = trial
                improved = True
        if not improved:
            step *= 0.5

    theta_star, beta_star = current
    _, angles = _hardy_chain(theta_star, beta_star)
    state = states.hardy(theta_star)
    report = run_hardy_argument(
        state,
        Observable.xz_plane(angles[0]),
        Observable.xz_plane(angles[1]),
        Observable.xz_plane(angles[2]),
        Observable.xz_plane(angles[3]),
        state_name=f"hardy:{theta_star}",
    )
    assert report.ch_middle is not None
    return HardyOptimum(
        state_angle=theta_star,
        angles=angles,
        value=report.ch_middle,
        hardy_probability=report.p1,
        report=report,
        evaluations=evaluations,
    )
