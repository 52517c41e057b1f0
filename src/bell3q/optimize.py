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
makes the objective of higher degree in its angle.

An exhaustive coarse grid of the open angles only proposes a start.  An open
axis carries only a few distinct monomials ``cos^i sin^j``, so the grid
contracts each atom group (c, a_l, b_l), a sparse coefficient tensor over
them, one axis at a time, at a cost of points times monomials.  Exact
symmetries give grid optima that differ only by rounding, so the winner is
the first point in row order within ``TIE_TOLERANCE`` of the maximum.  A
shrinking coordinate search refines it, and the point form, each group's
flat atoms summed in order on Python floats, scores the start and every
move.  Runs with the same inputs give identical results.

Everything of the polynomial but the state's tensor entries (the dimensions,
the constant and each candidate atom's weight, tensor index, factors, group,
point form and grid key) is a ``PlanePlan``, built once per expression and
mode and kept on the expression; an objective for a state reads the entries
and weights the atoms.  The coordinate search remembers the value of every
point it has tried and never evaluates a point twice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceededError, ConfigError, ContractViolationError
from .expressions import BellExpression
from .qcore import PAULI_AXES, Observable, StateVector, ordered_sum
from . import states
from .argument import ArgumentReport, run_hardy_argument

SYMMETRIC_GRID_STEP = 0.02
FREE_GRID_STEP = 0.1
DEFAULT_BUDGET = 10**8
REFINE_TOLERANCE = 1e-6
CERTIFY_TOLERANCE = 1e-6
GRID_SLAB_POINTS = 2**20
GRID_BLOCK_POINTS = 2**16
HARDY_THETA_MIN = 1e-6
TIE_TOLERANCE = 1e-12
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class PlanePlan:
    """What ``PlaneObjective`` reads of an expression, whatever the state.

    The dimensions, the closed and open ones, the constant, and per
    candidate atom (a nonempty Walsh subset with an x or z part per qubit)
    its flat index into the Pauli tensor (``entries``) and, in ``atoms``,
    its weight ``coefficient / denominator * walsh_weight``, factors, group,
    point form (three indices into ``[cos..., sin..., 1.0]``, padded with
    the 1.0 slot; ``PlaneObjective`` plans only for a matching state, of at
    most three qubits) and grid key.
    """

    dims: tuple
    closed_dims: tuple[int, ...]
    open_dims: tuple[int, ...]
    constant: float
    entries: np.ndarray
    atoms: tuple[tuple, ...]

    @classmethod
    def of(cls, expression: BellExpression, mode: str) -> "PlanePlan":
        """The expression's plan for ``mode``, built on first use."""
        plans = expression.plane_plans
        if mode not in plans:
            plans[mode] = cls._build(expression, mode)
        return plans[mode]

    @classmethod
    def _build(cls, expression: BellExpression, mode: str) -> "PlanePlan":
        pairs = expression.scheme.pairs()
        if mode == "symmetric":
            dims: tuple = tuple(dict.fromkeys(label for _, label in pairs))
            dim_of = {pair: dims.index(pair[1]) for pair in pairs}
            closed_dims: tuple[int, ...] = ()
        else:
            dims = pairs
            dim_of = {pair: i for i, pair in enumerate(pairs)}
            counts = [len(labels) for labels in expression.scheme.labels_per_qubit]
            closed_qubit = max(range(len(counts)), key=lambda q: (counts[q], q)) + 1
            closed_dims = tuple(i for i, (qubit, _) in enumerate(pairs) if qubit == closed_qubit)
        open_dims = tuple(i for i in range(len(dims)) if i not in closed_dims)

        width = len(open_dims)
        position = {dim: p for p, dim in enumerate(open_dims)}
        keys = [None] + [(dim, axis) for dim in closed_dims for axis in "xz"]
        shape = (4,) * expression.num_qubits
        constant, entries, atoms = 0.0, [], []
        for term in expression.terms:
            labels, walsh = term.payload.labels, term.payload.walsh
            scale = term.coefficient / walsh.denominator
            for subset, weight in walsh.weights:
                if not subset:
                    constant += scale * weight
                    continue
                for axes in product("xz", repeat=len(subset)):
                    index = [0] * len(shape)
                    for qubit, axis in zip(subset, axes):
                        index[qubit - 1] = PAULI_AXES.index(axis)
                    factors = tuple(
                        (dim_of[(qubit, labels[qubit - 1])], axis)
                        for qubit, axis in zip(subset, axes)
                    )
                    closed = [factor for factor in factors if factor[0] not in position]
                    indices = tuple([position[d] + width * (a == "z") for d, a in factors if d in position])
                    key = tuple([(indices.count(p), indices.count(p + width)) for p in range(width)])
                    entries.append(np.ravel_multi_index(index, shape))
                    atoms.append((
                        scale * weight, factors, keys.index(closed[0] if closed else None),
                        indices + (2 * width,) * (3 - len(indices)), key,
                    ))
        entries = np.array(entries, dtype=np.intp)
        entries.setflags(write=False)
        return cls(dims, closed_dims, open_dims, constant, entries, tuple(atoms))


class PlaneObjective:
    """Evaluator of an expression over x-z plane angles.

    Reduces the expression to atoms ``coefficient * prod_k comp(dim_k)``
    where each component is cos (x part) or sin (z part) of one search
    dimension.  Each atom group (c, a_l, b_l) has a grid form, its
    coefficients summed per monomial ``cos^i sin^j`` of each open axis, and
    a point form, its atoms in order as coefficients and indices into the
    open angles' cosines and sines.  ``grid_values`` and ``best_value`` take
    the open angles only and give the exact maximum over the closed ones (in
    symmetric mode, where nothing is closed, the plain value); ``complete``
    recovers the closed angles that reach it.  Both agree with the qcore
    route to floating point accuracy.
    The expression's ``PlanePlan`` holds everything but the state's tensor
    entries, so a new state only reads those and weights its atoms.
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
        self.plan = plan = PlanePlan.of(expression, mode)
        self.dims, self.closed_dims, self.open_dims = plan.dims, plan.closed_dims, plan.open_dims
        self.constant = plan.constant

        self.atoms: list[tuple[float, tuple[tuple[int, str], ...]]] = []
        self._starts = [plan.constant] + [0.0] * (2 * len(plan.closed_dims))
        self._flat: list[list] = [[] for _ in self._starts]
        self._tensors = [{((0, 0),) * len(plan.open_dims): start} for start in self._starts]
        entries = state.pauli_tensor.ravel()[plan.entries].tolist()
        for entry, (weight, factors, group, point, key) in zip(entries, plan.atoms):
            if abs(entry) < 1e-15:
                continue
            coefficient = weight * entry
            self.atoms.append((coefficient, factors))
            self._flat[group].append((coefficient, *point))
            tensor = self._tensors[group]
            tensor[key] = tensor.get(key, 0.0) + coefficient

    @property
    def num_dims(self) -> int:
        return len(self.dims)

    def _parts(self, open_angles) -> list[float]:
        """c, then a_l and b_l of each closed label, at one open point: each
        group's flat atoms, three factors multiplied left to right (a padded
        slot multiplies by the exact 1.0), summed in order."""
        values = [*map(math.cos, open_angles), *map(math.sin, open_angles), 1.0]
        parts = []
        for total, atoms in zip(self._starts, self._flat):
            for coefficient, i, j, k in atoms:
                total += coefficient * values[i] * values[j] * values[k]
            parts.append(total)
        return parts

    def grid_values(self, axes: list[np.ndarray]) -> np.ndarray:
        """Maximum over the closed angles at every point of an open grid."""
        if len(axes) != len(self.open_dims):
            raise ContractViolationError(
                f"expected {len(self.open_dims)} axes, got {len(axes)}"
            )

        def contract(tensor):
            # Axis by axis, keys agreeing on the remaining axes gather their
            # grids over this axis's monomials; all but the last take its points.
            keys, grid = list(tensor), np.array(list(tensor.values()))[:, None]
            for p, axis in enumerate(axes):
                pairs = list(dict.fromkeys(key[0] for key in keys))
                parents: dict = {}
                index = [parents.setdefault(key[1:], len(parents)) for key in keys]
                rows = np.zeros((len(parents), grid.shape[1], len(pairs)))
                rows[index, :, [pairs.index(key[0]) for key in keys]] = grid
                trig, top = np.array([np.cos(axis), np.sin(axis)]), max(map(max, pairs))
                powers = np.cumprod([np.ones_like(trig)] + [trig] * top, 0)  # cos^i, sin^i
                table = np.array([powers[i, 0] * powers[j, 1] for i, j in pairs])
                keys = list(parents)
                if p < len(axes) - 1:
                    grid = (rows @ table).reshape(len(keys), -1)
            return rows[0], table

        # The last axis in blocks, so that each block's parts stay in cache.
        (c, c_table), *closed = [contract(tensor) for tensor in self._tensors]
        total = np.empty((len(c), len(axes[-1])))
        step = max(1, GRID_BLOCK_POINTS // len(axes[-1]))
        for start in range(0, len(c), step):
            block = slice(start, start + step)
            np.matmul(c[block], c_table, out=total[block])
            for (a, a_table), (b, b_table) in zip(closed[::2], closed[1::2]):
                part = a[block] @ a_table
                total[block] += np.hypot(part, b[block] @ b_table, out=part)
        return total.reshape([len(axis) for axis in axes])

    def best_value(self, open_angles: np.ndarray) -> float:
        """Maximum over the closed angles at one point of the open angles."""
        c, *closed = self._parts(open_angles)
        return float(c + ordered_sum(map(math.hypot, closed[::2], closed[1::2])))

    def complete(self, open_angles: np.ndarray) -> np.ndarray:
        """Full angles: the open ones given, the closed ones at their maximum."""
        closed = self._parts(open_angles)[1:]
        angles = np.zeros(self.num_dims)
        angles[list(self.open_dims)] = open_angles
        for dim, a, b in zip(self.closed_dims, closed[::2], closed[1::2]):
            angles[dim] = math.atan2(b, a)
        return angles


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
    evaluate, start: np.ndarray, initial_step: float
) -> tuple[np.ndarray, float, int]:
    """Shrinking coordinate search over angles taken mod 2 pi, scored by
    ``evaluate`` alone from its value at ``start``; never decreases it.

    A move is taken when its trial beats the incumbent, and a sweep that
    takes none halves the step.  ``evaluations`` counts the trials, not the
    start; the evaluator runs once per distinct point, the start included.
    """
    current = [float(x) for x in start]
    best = evaluate(current)
    evaluations = 0
    seen: dict[tuple, float] = {tuple(current): best}
    step = initial_step
    while step >= REFINE_TOLERANCE:
        improved = False
        for dim in range(len(current)):
            for delta in (step, -step):
                trial = current.copy()
                trial[dim] = (trial[dim] + delta) % TWO_PI
                point = tuple(trial)
                value = seen.get(point)
                if value is None:
                    value = seen[point] = evaluate(trial)
                evaluations += 1
                if value > best:
                    best = value
                    current = trial
                    improved = True
        if not improved:
            step *= 0.5
    return np.array(current), best, evaluations


def _first_maximum(grid: np.ndarray, top: float) -> tuple:
    """Index of the grid's first point, in row order, within TIE_TOLERANCE
    of its maximum ``top``."""
    return np.unravel_index(int(np.argmax(grid >= top - TIE_TOLERANCE)), grid.shape)


def _grid_maximum(
    objective: PlaneObjective, axis: np.ndarray
) -> tuple[float, np.ndarray]:
    """First maximum, in row order, of the grid over the open angles.

    The grid is evaluated in slabs along its first axis of at most
    GRID_SLAB_POINTS points each (at least one row), so memory stays bounded;
    a later slab wins only when its maximum beats the incumbent by more than
    TIE_TOLERANCE.
    """
    dims = len(objective.open_dims)  # at least one: states have two qubits
    rows = max(1, GRID_SLAB_POINTS // len(axis) ** (dims - 1))
    best_value, best_angles = -math.inf, None
    for first in range(0, len(axis), rows):
        axes = [axis[first : first + rows]] + [axis] * (dims - 1)
        grid = objective.grid_values(axes)
        top = grid.max()
        if top > best_value + TIE_TOLERANCE:
            index = _first_maximum(grid, top)
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
) -> OptimizationResult:
    """Maximize an expression over x-z plane angles.

    An exhaustive coarse grid (default step 0.02 rad in symmetric mode,
    0.1 rad in free mode) proposes a start; a shrinking coordinate search,
    which scores the start and every move by the point form alone, refines
    it below ``REFINE_TOLERANCE``.  Free mode closes one qubit's angles
    exactly (see the module docstring): its grid and refinement run over the
    other qubits' angles only, and the closed angles of the result come from
    ``atan2``.  There ``grid_value`` is the best grid point's value with its
    closed angles already at their maximum, and ``evaluations`` counts such
    evaluations of the open angles.  Free mode additionally warm starts from
    the symmetric optimum, so the free result is never worse than the
    symmetric one.  Raises ConfigError for a grid step that is not positive
    and finite or a budget below 1, and BudgetExceededError when the grid
    would need more than ``budget`` evaluations, and ContractViolationError
    when the grid maximum is not finite (coefficients so large that the
    objective overflows).
    """
    step = grid_step if grid_step is not None else (
        SYMMETRIC_GRID_STEP if mode == "symmetric" else FREE_GRID_STEP
    )
    if not 0.0 < step < math.inf:
        raise ConfigError(f"grid step must be positive and finite, got {step!r}")
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
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check below
        grid_value, grid_angles = _grid_maximum(objective, axis)
    if not math.isfinite(grid_value):  # -inf: every slab's maximum was NaN
        raise ContractViolationError(f"grid maximum {grid_value!r} is not finite")
    evaluations = points

    candidates = [(grid_angles, step)]
    if mode == "free":
        symmetric = maximize(expression, state, "symmetric", budget=budget)
        by_label = dict(zip(symmetric.point.dims, symmetric.point.angles))
        embedded = np.array([by_label[objective.dims[d][1]] for d in objective.open_dims])
        evaluations += symmetric.evaluations + 1
        candidates.append((embedded, SYMMETRIC_GRID_STEP))

    best_angles, best_value = None, -math.inf
    for start, start_step in candidates:
        refined, value, used = _refine(objective.best_value, start, start_step)
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
    **options,
) -> CertificationResult:
    """Check that the maximum ``maximize`` finds stays below ``bound`` within
    CERTIFY_TOLERANCE; ``options`` go to ``maximize``.

    The check reads the grid-plus-refinement maximum, a heuristic: a
    ``certified`` result is evidence, not a proof, that no angles exceed the
    bound.
    """
    result = maximize(expression, state, mode, **options)
    return CertificationResult(
        certified=result.value <= bound + CERTIFY_TOLERANCE,
        bound=bound,
        maximum=result,
    )


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


def hardy_maximum(*, state_angle: float | None = None) -> HardyOptimum:
    """Maximize the sometimes-always-never chain's first probability, in
    closed form (Hardy, PRL 71, 1665 (1993); Goldstein, PRL 72, 1951 (1994)).

    On the state cos(theta)|++> + sin(theta)|--> the chain's three zero
    constraints leave one free angle, and the first probability peaks at
    [c s (c - s) / (1 - c s)]^2, with c, s = cos theta, sin theta, at the
    angles a1, a2 = atan2(s^3 - c^3, -+2 (s c)^(3/2)),
    b1 = atan2(s - c, 2 sqrt(s c)) and b2 = pi/2 + 2 atan sqrt(c / s).
    Over the state angle it peaks at sin 2 theta = 3 - sqrt 5, where it is
    (5 sqrt 5 - 11) / 2.  Pass ``state_angle`` to fix the state; at pi/4 the
    maximum collapses to 0, and outside [1e-6, pi/4] it is refused with
    ConfigError (below it the angles close in on 3 pi/2 and the chain's
    checks fail on rounding).  The returned value is the ch catalog
    expression's middle term at the optimum, which equals the chain's first
    probability because the constraint probabilities vanish.
    """
    if state_angle is None:
        theta = 0.5 * math.asin(3.0 - math.sqrt(5.0))
    elif HARDY_THETA_MIN <= state_angle <= math.pi / 4.0:
        theta = state_angle
    else:
        raise ConfigError(
            f"state angle {state_angle!r} outside [{HARDY_THETA_MIN}, pi/4]"
        )
    c, s = math.cos(theta), math.sin(theta)
    r, cubes = (s * c) ** 1.5, s**3 - c**3
    a1, a2 = math.atan2(cubes, -2.0 * r), math.atan2(cubes, 2.0 * r)
    b1 = math.atan2(s - c, 2.0 * math.sqrt(s * c))
    b2 = math.pi / 2.0 + 2.0 * math.atan(math.sqrt(c / s))
    angles = tuple(angle % TWO_PI for angle in (a1, b1, a2, b2))
    report = run_hardy_argument(
        states.hardy(theta), *map(Observable.xz_plane, angles), state_name=f"hardy:{theta}"
    )
    assert report.ch_middle is not None
    return HardyOptimum(
        state_angle=theta,
        angles=angles,
        value=report.ch_middle,
        hardy_probability=report.p1,
        report=report,
        evaluations=1,
    )
