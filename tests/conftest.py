"""Shared fixtures and oracle helpers for the test suite.

``MeasurementContext``, ``outcome_probability``, ``event_probability`` and
``correlator`` read one measurement context at a time through the
package's ``correlation_table`` and ``WalshForm``; ``permute_qubits``,
``observable_matrix`` and ``projector`` are the matrix forms of states and
observables.  The ``kron_*`` helpers evaluate quantum values the direct
way, building Kronecker-product projectors and operators on the amplitude
vector from this module's Pauli matrices.  They share no code with the
package's compiled route (Pauli correlation tensor and Walsh weights) and
serve as its oracle.  ``scalar_hardy_chain`` builds the Hardy chain from
explicit eigenvectors at one (theta, beta2), the oracle of
``hardy_maximum``'s closed-form angles, and ``grid_hardy_search`` maximizes
its first probability by the 64 x 128 grid plus coordinate search, the
oracle of ``hardy_maximum``'s closed-form value.
``broadcast_grid_values`` sums a ``PlaneObjective``'s atoms one by one over
a broadcast mesh, the oracle of its monomial-tensor grid, and
``summed_parts`` sums them one by one at a point with ``_sum_atoms``, the
oracle of its flat atoms.
``plane_value`` and ``plane_binding`` evaluate a ``PlaneObjective`` at full
angles, the oracle of its closed-qubit maximum.
``direct_objective`` builds a ``PlaneObjective``'s atoms term by term from
the expression and the state alone, the oracle of the plan an expression
keeps per mode (which merges the atoms of terms that share a tensor entry
and factors), and ``sequential_refine`` is the
coordinate search that evaluates every trial, the oracle of ``_refine``'s
memo of trial points.
``loop_reality_counterexample`` checks the three-qubit chain on each of the
64 z/x strategies in turn, the oracle of ``find_reality_counterexample``'s
exact-bounds route.
``conditional_probability`` is the raising form of the conditional rule,
which the package expresses once, as ``argument``'s vacuous-premise check.
"""
import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np
import pytest

from bell3q import (
    Binding,
    ContractViolationError,
    CorrelatorTerm,
    Observable,
    SettingScheme,
    StateVector,
    enumerate_strategies,
    ghz,
    outcome_tuples,
    singlet,
    w,
)
from bell3q.qcore import CONDITION_FLOOR, PAULI_AXES, WalshForm, _subsets, correlation_table
from bell3q.optimize import REFINE_TOLERANCE, _first_maximum

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class UndefinedConditionalError(ContractViolationError):
    """A conditional probability was requested on a probability-zero event."""


def observable_matrix(obs):
    nx, ny, nz = obs.direction
    return nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z


def projector(obs, outcome):
    if outcome not in (1, -1):
        raise ContractViolationError(f"outcome must be +1 or -1, got {outcome!r}")
    return (PAULI_I + outcome * observable_matrix(obs)) / 2.0


@dataclass(frozen=True)
class MeasurementContext:
    """One observable per qubit, measured jointly."""

    observables: tuple

    def __post_init__(self):
        for obs in self.observables:
            if not isinstance(obs, Observable):
                raise ContractViolationError(f"not an observable: {obs!r}")


def _check_outcomes(num_qubits, outcomes):
    outcomes = tuple(outcomes)
    if len(outcomes) != num_qubits:
        raise ContractViolationError(f"expected {num_qubits} outcomes, got {len(outcomes)}")
    for value in outcomes:
        if value not in (1, -1):
            raise ContractViolationError(f"outcome must be +1 or -1, got {value!r}")
    return outcomes


def event_probability(state, context, accepted):
    """Probability that the joint outcome in one context falls in a set of
    tuples: the context's ``(2,) * n`` correlation table read by the event's
    Walsh form."""
    unique = {_check_outcomes(state.num_qubits, o) for o in accepted}
    table = correlation_table(state, [(o,) for o in context.observables])
    return WalshForm.of_event(unique, state.num_qubits).value(table)


def outcome_probability(state, context, outcomes):
    return event_probability(state, context, (outcomes,))


def correlator(state, context, subset=None):
    """Expectation of the product of outcomes over a subset of 1-based
    qubits, all of them by default."""
    qubits = (
        tuple(range(1, state.num_qubits + 1)) if subset is None else tuple(sorted(set(subset)))
    )
    if not qubits:
        raise ContractViolationError("correlator subset must be non-empty")
    for q in qubits:
        if not 1 <= q <= state.num_qubits:
            raise ContractViolationError(f"qubit index {q} out of range")
    table = correlation_table(state, [(o,) for o in context.observables])
    return float(table.reshape(-1)[_subsets(state.num_qubits)[qubits]])


def permute_qubits(state, permutation):
    """Reorder qubits so that new qubit ``i`` is old qubit ``permutation[i-1]``."""
    perm = tuple(permutation)
    if sorted(perm) != list(range(1, state.num_qubits + 1)):
        raise ContractViolationError(f"not a permutation of qubits: {perm!r}")
    tensor = state.amplitudes.reshape((2,) * state.num_qubits)
    reordered = np.transpose(tensor, axes=[q - 1 for q in perm])
    return StateVector(state.num_qubits, reordered.reshape(-1))


@pytest.fixture
def w_state():
    return w()


@pytest.fixture
def ghz_state():
    return ghz()


@pytest.fixture
def singlet_state():
    return singlet()


def make_context(*observables):
    return MeasurementContext(tuple(observables))


def all_z(n):
    return make_context(*(Observable.z() for _ in range(n)))


def all_x(n):
    return make_context(*(Observable.x() for _ in range(n)))


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` for one test by a wrapper that records the
    arguments of every call; returns the list of records."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def zx_binding(scheme):
    """Uniform A = z, B = x binding for any two-label scheme."""
    return Binding.uniform(scheme, {"A": Observable.z(), "B": Observable.x()})


def kron_outcome_probability(state, context, outcomes):
    """``|| (P_1 x ... x P_n) |psi> ||^2`` with per-qubit projectors."""
    joint = reduce(
        np.kron,
        [projector(obs, o) for obs, o in zip(context.observables, outcomes)],
    )
    projected = joint @ state.amplitudes
    return float(np.real(np.vdot(projected, projected)))


def kron_correlator(state, context, subset):
    """``<psi| M |psi>`` with the subset's observables, identity elsewhere."""
    factors = [
        observable_matrix(obs) if q in subset else PAULI_I
        for q, obs in enumerate(context.observables, start=1)
    ]
    operator = reduce(np.kron, factors)
    return float(np.real(np.vdot(state.amplitudes, operator @ state.amplitudes)))


def kron_term_value(state, binding, term):
    """A term's quantum value, without its coefficient, by the kron route."""
    payload = term.payload
    context = make_context(
        *(binding.observable(q, label) for q, label in enumerate(payload.labels, start=1))
    )
    if isinstance(payload, CorrelatorTerm):
        return kron_correlator(state, context, payload.subset)
    return sum(kron_outcome_probability(state, context, o) for o in payload.accepted)


def conditional_probability(state, context, accepted, given):
    """P(accepted | given) for two events in the same context; raises
    UndefinedConditionalError when P(given) is at most CONDITION_FLOOR."""
    accepted_set = {tuple(o) for o in accepted}
    given_set = {tuple(o) for o in given}
    given_probability = event_probability(state, context, given_set)
    if given_probability <= CONDITION_FLOOR:
        raise UndefinedConditionalError(
            f"conditioning event has probability {given_probability!r}"
        )
    return event_probability(state, context, accepted_set & given_set) / given_probability


def brute_force_correlator(state, context, subset):
    """Correlator oracle via the full outcome distribution.

    Sums product-of-subset-outcomes times joint probability over all 2^n
    outcome tuples, the probabilities from the kron projectors.
    """
    total = 0.0
    for outcomes in outcome_tuples(state.num_qubits):
        sign = 1
        for q in subset:
            sign *= outcomes[q - 1]
        total += sign * kron_outcome_probability(state, context, outcomes)
    return total


def basis_state(num_qubits, index):
    amplitudes = np.zeros(2**num_qubits)
    amplitudes[index] = 1.0
    return StateVector(num_qubits, amplitudes)


def _plus_eigenvector(theta):
    half = math.pi / 4.0 - theta / 2.0
    return np.array([math.cos(half), math.sin(half)])


def _orthogonal(vector):
    return np.array([-vector[1], vector[0]])


def _angle_of_plus_eigenvector(vector):
    v = vector / np.linalg.norm(vector)
    return math.atan2(v[0] ** 2 - v[1] ** 2, 2.0 * v[0] * v[1]) % (2.0 * math.pi)


def scalar_hardy_chain(theta, beta2):
    """The sometimes-always-never chain at one (theta, beta2), built from
    explicit eigenvectors: a1 = +1 forces b2 = +1, a2 = +1 forces b1 = +1,
    and b1 = b2 = +1 never happens.  Returns p1 and the four angles."""
    amplitude = np.array([[math.cos(theta), 0.0], [0.0, math.sin(theta)]])
    b2_plus = _plus_eigenvector(beta2)
    chi_a = amplitude @ _orthogonal(b2_plus)
    a1_plus = _orthogonal(chi_a / np.linalg.norm(chi_a))
    chi_b = amplitude @ b2_plus
    b1_plus = _orthogonal(chi_b / np.linalg.norm(chi_b))
    chi_c = amplitude.T @ _orthogonal(b1_plus)
    a2_plus = _orthogonal(chi_c / np.linalg.norm(chi_c))
    p1 = float(a1_plus @ amplitude @ a2_plus) ** 2
    angles = (
        _angle_of_plus_eigenvector(a1_plus),
        _angle_of_plus_eigenvector(b1_plus),
        _angle_of_plus_eigenvector(a2_plus),
        beta2 % (2.0 * math.pi),
    )
    return p1, angles


def _wrap_angle(angle):
    return angle % (2.0 * math.pi)


def grid_hardy_search(state_angle=None):
    """The chain's first probability maximized by search: the 64 x 128 grid
    over (theta, beta2), or beta2 alone at a given state angle, then a
    shrinking coordinate search from its first maximum, theta clamped to
    [1e-6, pi/4].  Returns p1, theta and the four angles."""
    if state_angle is None:
        thetas = np.linspace(0.005, math.pi / 4.0, 64)
    else:
        thetas = np.array([state_angle])
    betas = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    grid = np.array([[scalar_hardy_chain(float(t), float(b))[0] for b in betas] for t in thetas])
    row, column = _first_maximum(grid, grid.max())
    theta, beta = float(thetas[row]), float(betas[column])
    if state_angle is None:
        fixed, start = (), [theta, beta]
        wrap = (lambda t: min(max(t, 1e-6), math.pi / 4.0), _wrap_angle)
    else:
        fixed, start, wrap = (theta,), [beta], None
    point, p1, _ = sequential_refine(
        lambda point: scalar_hardy_chain(*fixed, *point)[0],
        start,
        float(grid[row, column]),
        0.05,
        wrap,
    )
    theta = float(point[0]) if state_angle is None else theta
    return p1, theta, scalar_hardy_chain(*fixed, *point)[1]


def plane_binding(objective, angles):
    """The binding of a ``PlaneObjective``'s full angles, one per dimension."""
    observables = {dim: Observable.xz_plane(a) for dim, a in zip(objective.dims, angles)}
    if objective.mode == "symmetric":
        return Binding.uniform(objective.expression.scheme, observables)
    return Binding(observables)


def plane_value(objective, angles):
    """A ``PlaneObjective`` at full angles: its open angles' parts, each
    closed label's a_l cos t_l + b_l sin t_l added to c."""
    c, *closed = objective._parts([angles[dim] for dim in objective.open_dims])
    for dim, a, b in zip(objective.closed_dims, closed[::2], closed[1::2]):
        c += a * math.cos(angles[dim]) + b * math.sin(angles[dim])
    return float(c)


def broadcast_grid_values(objective, axes):
    """``objective.grid_values(axes)`` atom by atom over an ``np.ix_`` mesh.

    Splits the public atoms by their closed factor, if any, into c and each
    closed label's a_l (cos) and b_l (sin), broadcasts every atom's open
    factors over the grid, and returns ``c + sum_l hypot(a_l, b_l)``.
    """
    position = {dim: p for p, dim in enumerate(objective.open_dims)}
    mesh = np.ix_(*axes)
    shape = tuple(len(axis) for axis in axes)
    c = np.full(shape, objective.constant)
    closed = {(dim, axis): np.zeros(shape) for dim in objective.closed_dims for axis in "xz"}
    for coefficient, factors in objective.atoms:
        part, target = coefficient, c
        for dim, axis in factors:
            if dim in position:
                points = mesh[position[dim]]
                part = part * (np.cos(points) if axis == "x" else np.sin(points))
            else:
                target = closed[(dim, axis)]
        target += part
    for dim in objective.closed_dims:
        c += np.hypot(closed[(dim, "x")], closed[(dim, "z")])
    return c


def _sum_atoms(total, atoms, cos, sin):
    """Add ``coefficient * prod cos/sin`` over atoms to ``total`` at one
    point; ``cos`` and ``sin`` hold one float per dimension."""
    for coefficient, factors in atoms:
        part = coefficient
        for dim, axis in factors:
            part = part * (cos[dim] if axis == "x" else sin[dim])
        total += part
    return total


def summed_parts(objective, open_angles):
    """``objective._parts(open_angles)`` atom by atom from the public atoms.

    Splits them by their closed factor, if any, into c and each closed
    label's a_l (cos) and b_l (sin), renumbers the open factors over the
    open angles, and sums each group with ``_sum_atoms`` on ``np.cos`` and
    ``np.sin`` of those angles, from the constant for c and 0 for the rest.
    """
    position = {dim: p for p, dim in enumerate(objective.open_dims)}
    keys = [None] + [(dim, axis) for dim in objective.closed_dims for axis in "xz"]
    groups = {key: [] for key in keys}
    for coefficient, factors in objective.atoms:
        closed = [factor for factor in factors if factor[0] not in position]
        rest = tuple((position[dim], axis) for dim, axis in factors if dim in position)
        groups[closed[0] if closed else None].append((coefficient, rest))
    cos, sin = np.cos(open_angles).tolist(), np.sin(open_angles).tolist()
    starts = [objective.constant] + [0.0] * (len(keys) - 1)
    return [_sum_atoms(v, groups[key], cos, sin) for v, key in zip(starts, keys)]


def direct_objective(expression, state, mode):
    """A ``PlaneObjective``'s state-dependent parts, built term by term.

    Returns the constant, the atoms ``(coefficient, factors)`` of every
    term's Walsh subsets and x/z choices whose tensor entry is at least 1e-15
    in size, in term order, and per atom its origin: the term's index and
    the Pauli tensor index it reads.
    """
    pairs = expression.scheme.pairs()
    if mode == "symmetric":
        dims = tuple(dict.fromkeys(label for _, label in pairs))
        dim_of = {pair: dims.index(pair[1]) for pair in pairs}
    else:
        dim_of = {pair: i for i, pair in enumerate(pairs)}

    constant, atoms, origins = 0.0, [], []
    for number, term in enumerate(expression.terms):
        labels, walsh = term.payload.labels, term.payload.walsh
        scale = term.coefficient / walsh.denominator
        for subset, weight in walsh.weights:
            if not subset:
                constant += scale * weight
                continue
            for axes in product("xz", repeat=len(subset)):
                index = [0] * expression.num_qubits
                for qubit, axis in zip(subset, axes):
                    index[qubit - 1] = PAULI_AXES.index(axis)
                entry = float(state.pauli_tensor[tuple(index)])
                if abs(entry) < 1e-15:
                    continue
                factors = tuple(
                    (dim_of[(qubit, labels[qubit - 1])], axis) for qubit, axis in zip(subset, axes)
                )
                atoms.append((scale * weight * entry, factors))
                origins.append((number, tuple(index)))
    return constant, atoms, origins


def sequential_refine(evaluate, start, start_value, initial_step, wrap=None):
    """``bell3q.optimize._refine`` with every trial evaluated, repeats too."""
    wrap = wrap or (_wrap_angle,) * len(start)
    current = [float(x) for x in start]
    best = start_value
    evaluations = 0
    step = initial_step
    while step >= REFINE_TOLERANCE:
        improved = False
        for dim in range(len(current)):
            for delta in (step, -step):
                trial = current.copy()
                trial[dim] = wrap[dim](trial[dim] + delta)
                value = evaluate(trial)
                evaluations += 1
                if value > best:
                    best = value
                    current = trial
                    improved = True
        if not improved:
            step *= 0.5
    return np.array(current), best, evaluations


CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def breaks_reality_chain(strategy, labels=("z", "x"), premises=CYCLIC):
    """Whether one deterministic strategy meets the three-qubit chain's
    premises yet breaks its conclusion: at least two z = -1, x_j = x_k for
    every (i, j, k) in ``premises`` with z_i = -1, and not x1 = x2 = x3.
    ``labels`` names the z and the x setting."""
    z_label, x_label = labels
    z = [strategy.outcome(q, z_label) for q in (1, 2, 3)]
    x = [strategy.outcome(q, x_label) for q in (1, 2, 3)]
    if sum(1 for v in z if v == -1) < 2:
        return False
    premises_hold = all(x[j - 1] == x[k - 1] for i, j, k in premises if z[i - 1] == -1)
    return premises_hold and not (x[0] == x[1] == x[2])


def loop_reality_counterexample():
    """The first of the 64 z/x strategies that breaks the chain, or None."""
    strategies = enumerate_strategies(SettingScheme.uniform(3, ("z", "x")))
    return next((s for s in strategies if breaks_reality_chain(s)), None)
