"""Maximization of Bell expressions over x-z plane angles.

The search space is one angle per setting label (symmetric mode, the same
observable on every qubit) or one angle per (qubit, label) pair (free mode).
Every expression restricted to the x-z plane is a trigonometric polynomial.
``PlaneObjective`` reads it off the compiled form: each weighted subset of a
term's Walsh form expands over the cos (x) and sin (z) components of its
qubits' angles, weighted by the state's Pauli correlation tensor.

In free mode every atom of that polynomial holds at most one angle of each
qubit, so with the other qubits' angles fixed the objective is
``c + sum_l (a_l cos t_l + b_l sin t_l)`` over one qubit's labels ``l``.  Its
maximum over those angles is exact, ``c + sum_l hypot(a_l, b_l)`` at
``t_l = atan2(b_l, a_l)``.  Free mode closes the qubit with the most labels
(the last one on a tie) that way and searches only the other, "open",
angles.  Symmetric mode closes nothing: a label shared by several qubits
makes the objective of higher degree in its angle.  The optimizer evaluates
the objective over an exhaustive coarse grid of the open angles, then
refines the best grid points with a shrinking coordinate search.
Everything is deterministic: two runs with the same inputs give identical
results.
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
GRID_SLAB_POINTS = 2**20
HARDY_THETA_MIN = 1e-6
HARDY_TIE_TOLERANCE = 1e-12
TWO_PI = 2.0 * math.pi


def _sum_atoms(total, atoms, cos, sin):
    """Add ``coefficient * prod cos/sin`` over atoms to ``total``.

    ``cos`` and ``sin`` hold one component per dimension: scalars for one
    point, or arrays shaped to broadcast over a grid.
    """
    for coefficient, factors in atoms:
        part = coefficient
        for dim, axis in factors:
            part = part * (cos[dim] if axis == "x" else sin[dim])
        total += part
    return total


class PlaneObjective:
    """Evaluator of an expression over x-z plane angles.

    Reduces the expression to atoms ``coefficient * prod_k comp(dim_k)``
    where each component is cos (x part) or sin (z part) of one search
    dimension.  ``value`` evaluates them at full angles.  ``grid_values`` and
    ``best_value`` take the open angles only and give the exact maximum over
    the closed ones (in symmetric mode, where nothing is closed, the plain
    value); ``complete`` recovers the closed angles that reach it.  All agree
    with the qcore evaluation route to floating point accuracy.
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
            self.closed_dims: tuple[int, ...] = ()
        else:
            self.dims = pairs
            self._dim_of = {pair: i for i, pair in enumerate(pairs)}
            counts = [len(labels) for labels in expression.scheme.labels_per_qubit]
            closed_qubit = max(range(len(counts)), key=lambda q: (counts[q], q)) + 1
            self.closed_dims = tuple(
                i for i, (qubit, _) in enumerate(pairs) if qubit == closed_qubit
            )
        self.open_dims = tuple(
            i for i in range(len(self.dims)) if i not in self.closed_dims
        )

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

        # Split the atoms by their closed factor, if any, and renumber the
        # rest over the open dimensions: atoms without one sum to c, those
        # with cos t_l (sin t_l) to a_l (b_l).
        position = {dim: p for p, dim in enumerate(self.open_dims)}
        groups = {(dim, axis): [] for dim in self.closed_dims for axis in "xz"}
        self._open_atoms: list = []
        for coefficient, factors in self.atoms:
            closed = [factor for factor in factors if factor[0] not in position]
            rest = tuple((position[dim], axis) for dim, axis in factors if dim in position)
            (groups[closed[0]] if closed else self._open_atoms).append((coefficient, rest))
        self._closed_atoms = [
            (groups[(dim, "x")], groups[(dim, "z")]) for dim in self.closed_dims
        ]

    @property
    def num_dims(self) -> int:
        return len(self.dims)

    def value(self, angles: np.ndarray) -> float:
        """The objective at full angles, one per dimension."""
        return float(_sum_atoms(self.constant, self.atoms, np.cos(angles), np.sin(angles)))

    def _parts(self, start, cos, sin):
        """c and each closed label's (a_l, b_l) at the open components;
        ``start(v)`` makes a fresh accumulator holding v."""
        c = _sum_atoms(start(self.constant), self._open_atoms, cos, sin)
        return c, [
            (_sum_atoms(start(0.0), x, cos, sin), _sum_atoms(start(0.0), z, cos, sin))
            for x, z in self._closed_atoms
        ]

    def grid_values(self, axes: list[np.ndarray]) -> np.ndarray:
        """Maximum over the closed angles at every point of an open grid."""
        if len(axes) != len(self.open_dims):
            raise ContractViolationError(
                f"expected {len(self.open_dims)} axes, got {len(axes)}"
            )
        shape = tuple(len(axis) for axis in axes)
        mesh = np.ix_(*axes)  # each axis shaped to broadcast along its own dim
        cos = [np.cos(axis) for axis in mesh]
        sin = [np.sin(axis) for axis in mesh]
        total, closed = self._parts(lambda value: np.full(shape, value), cos, sin)
        for a, b in closed:
            total += np.hypot(a, b)
        return total

    def best_value(self, open_angles: np.ndarray) -> float:
        """Maximum over the closed angles at one point of the open angles."""
        total, closed = self._parts(float, np.cos(open_angles), np.sin(open_angles))
        return float(total + sum(math.hypot(a, b) for a, b in closed))

    def complete(self, open_angles: np.ndarray) -> np.ndarray:
        """Full angles: the open ones given, the closed ones at their maximum."""
        _, closed = self._parts(float, np.cos(open_angles), np.sin(open_angles))
        angles = np.zeros(self.num_dims)
        angles[list(self.open_dims)] = open_angles
        for dim, (a, b) in zip(self.closed_dims, closed):
            angles[dim] = math.atan2(b, a)
        return angles

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
    evaluate,
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
                value = evaluate(trial)
                evaluations += 1
                if value > best:
                    best = value
                    current = trial
                    improved = True
        if not improved:
            step *= 0.5
    return current, best, evaluations


def _grid_maximum(
    objective: PlaneObjective, axis: np.ndarray
) -> tuple[float, np.ndarray]:
    """First maximum, in row order, of the grid over the open angles.

    The grid is evaluated in slabs along its first axis of at most
    GRID_SLAB_POINTS points each (at least one row), so memory stays bounded;
    a later slab wins only when strictly greater.
    """
    dims = len(objective.open_dims)  # at least one: states have two qubits
    rows = max(1, GRID_SLAB_POINTS // len(axis) ** (dims - 1))
    best_value, best_angles = -math.inf, None
    for first in range(0, len(axis), rows):
        axes = [axis[first : first + rows]] + [axis] * (dims - 1)
        grid = objective.grid_values(axes)
        index = np.unravel_index(int(np.argmax(grid)), grid.shape)
        if grid[index] > best_value:
            best_value = float(grid[index])
            best_angles = np.array([axes[d][index[d]] for d in range(dims)])
    return best_value, best_angles


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
    refines it below ``refine_tolerance``.  Free mode closes one qubit's
    angles exactly (see the module docstring): its grid and refinement run
    over the other qubits' angles only, and the closed angles of the result
    come from ``atan2``.  There ``grid_value`` is the best grid point's
    value with its closed angles already at their maximum, and
    ``evaluations`` counts such evaluations of the open angles.  Free mode
    additionally warm starts from the symmetric optimum, so the free result
    is never worse than the symmetric one.  Raises ConfigError for a grid
    step or refine tolerance that is not positive and finite or a budget
    below 1, and BudgetExceededError when the grid would need more than
    ``budget`` evaluations.
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
    open_dims = len(objective.open_dims)
    points = count**open_dims
    if points > budget:
        raise BudgetExceededError(
            f"grid of {points} points exceeds budget {budget} "
            f"({open_dims} open dimensions at step {step})"
        )
    axis = np.linspace(0.0, TWO_PI, count, endpoint=False)
    grid_value, grid_angles = _grid_maximum(objective, axis)
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
        by_label = dict(zip(symmetric.point.dims, symmetric.point.angles))
        embedded = np.array([by_label[objective.dims[d][1]] for d in objective.open_dims])
        start_value = objective.best_value(embedded)
        evaluations += symmetric.evaluations + 1
        candidates.append((start_value, embedded, SYMMETRIC_GRID_STEP))

    best_angles, best_value = None, -math.inf
    for start_value, start, start_step in candidates:
        refined, value, used = _refine(
            objective.best_value, start, start_value, start_step, refine_tolerance
        )
        evaluations += used
        if value > best_value:
            best_value, best_angles = value, refined

    angles = objective.complete(best_angles)
    point = AnglePoint(mode, objective.dims, tuple(float(a) for a in angles))
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


def _unit_orthogonal(x, y):
    """The unit vector orthogonal to (x, y), rotated a quarter turn."""
    norm = np.sqrt(x * x + y * y)
    return -y / norm, x / norm


def _plus_eigenvector_angle(x, y):
    """Plane angle of the observable whose +1 eigenvector is the unit (x, y)."""
    return np.arctan2(x * x - y * y, 2.0 * x * y) % TWO_PI


def _hardy_chain(theta, beta2):
    """Observable angles satisfying the sometimes-always-never chain exactly.

    For the state cos(theta)|++> + sin(theta)|--> and a free angle for b2,
    the three zero constraints of the chain (a1 = +1 forces b2 = +1,
    a2 = +1 forces b1 = +1, never b1 = b2 = +1) determine a1, b1 and a2
    uniquely, so (theta, beta2) parameterizes every chain configuration.
    Returns the chain's first probability and the four observable angles.
    Both arguments may be numpy arrays; the results broadcast over them.
    """
    c, s = np.cos(theta), np.sin(theta)
    half = math.pi / 4.0 - beta2 / 2.0
    u, v = np.cos(half), np.sin(half)  # b2's +1 eigenvector; (-v, u) is its -1
    a1 = _unit_orthogonal(-c * v, s * u)
    b1 = _unit_orthogonal(c * u, s * v)
    a2 = _unit_orthogonal(-c * b1[1], s * b1[0])  # amplitudes times b1's -1
    p1 = (a1[0] * c * a2[0] + a1[1] * s * a2[1]) ** 2
    angles = (
        _plus_eigenvector_angle(*a1),
        _plus_eigenvector_angle(*b1),
        _plus_eigenvector_angle(*a2),
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

    Searches jointly over the state angle in [1e-6, pi/4] and the observable
    angles; the chain's three zero constraints pin four observable angles
    down to one free angle, so the search runs over (theta, beta2) and the
    remaining angles are recovered, not asserted.  A 64 x 128 grid, taken in
    one broadcast, seeds a shrinking coordinate search.  Pass
    ``state_angle`` to restrict the search to one state; at pi/4 the maximum
    collapses to 0, and below 1e-6 (where the chain's norms underflow) it is
    refused with ConfigError.
    The returned value is the ch catalog expression's middle term evaluated
    at the found configuration, which equals the chain's first probability
    because the constraint probabilities vanish.
    """
    if state_angle is None:
        thetas = np.linspace(0.005, math.pi / 4.0, 64)
    else:
        if not HARDY_THETA_MIN <= state_angle <= math.pi / 4.0:
            raise ConfigError(
                f"state angle {state_angle!r} outside [{HARDY_THETA_MIN}, pi/4]"
            )
        thetas = np.array([state_angle])
    betas = np.linspace(0.0, TWO_PI, 128, endpoint=False)

    # The grid has exact symmetric ties, so its winner is the first point in
    # row order within HARDY_TIE_TOLERANCE of the maximum.
    grid, _ = _hardy_chain(thetas[:, None], betas[None, :])
    first = np.flatnonzero(grid >= grid.max() - HARDY_TIE_TOLERANCE)[0]
    row, column = np.unravel_index(first, grid.shape)
    current = [float(thetas[row]), float(betas[column])]
    best_value = float(grid[row, column])
    evaluations = grid.size

    def clamp_theta(value: float) -> float:
        return min(max(value, HARDY_THETA_MIN), math.pi / 4.0)

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
    angles = tuple(float(angle) for angle in angles)
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
