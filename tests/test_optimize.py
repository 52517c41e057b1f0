"""Grid-plus-refinement angle search, certification and the Hardy search.

Frozen optimizer targets:

  mermin on w, symmetric      3.045956   (best shared x-z settings)
  mermin on ghz, symmetric    4          (algebraic maximum)
  chsh on singlet, free       2 sqrt 2
  ch on singlet, free         (sqrt 2 - 1) / 2
  hardy_maximum()             (5 sqrt 5 - 11) / 2 at state angle ~0.43469

The w optimum's angle pair is only fixed up to two exact symmetries: adding
pi to the B angle negates an observable that appears an even number of times
in every term, and reflecting both angles through pi/2 conjugates every
observable by z, which leaves w itself invariant.  The recovered point must
land on the four-element orbit those symmetries generate.
"""
import dataclasses
import math
import warnings
from contextlib import nullcontext
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from bell3q import (
    AnglePoint,
    BudgetExceededError,
    ConfigError,
    ContractViolationError,
    PlaneObjective,
    StateVector,
    catalog,
    catalog_ids,
    certify_below,
    ghz,
    hardy,
    hardy_maximum,
    maximize,
    parse_expression_text,
    quantum_value,
    singlet,
    w,
)
import bell3q.optimize
from bell3q.optimize import PlanePlan, _refine

from conftest import (
    broadcast_grid_values,
    direct_objective,
    grid_hardy_search,
    plane_binding,
    plane_value,
    scalar_hardy_chain,
    sequential_refine,
    summed_parts,
)

MERMIN_W_MAX = 3.045956
GOLDEN_RATIO_PROBABILITY = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
TWO_PI = 2.0 * math.pi

# best shared settings for mermin on w, in x-z plane angle form
REFERENCE_W_POINT = (-0.628, 1.154)


def _orbit(alpha, beta):
    points = set()
    for reflect in (False, True):
        a, b = (alpha, beta) if not reflect else (math.pi - alpha, math.pi - beta)
        for shift in (0.0, math.pi):
            points.add((a % TWO_PI, (b + shift) % TWO_PI))
    return points


def _circular_distance(a, b):
    diff = abs(a - b) % TWO_PI
    return min(diff, TWO_PI - diff)


def test_mermin_w_symmetric_maximum():
    result = maximize(catalog("mermin"), w(), "symmetric")
    assert result.value == pytest.approx(MERMIN_W_MAX, abs=1e-5)
    assert result.grid_value <= result.value + 1e-12
    found = result.point.angles
    best = min(
        max(_circular_distance(found[0], a), _circular_distance(found[1], b))
        for a, b in _orbit(*REFERENCE_W_POINT)
    )
    assert best < 2e-3


def test_mermin_ghz_symmetric_maximum():
    result = maximize(catalog("mermin"), ghz(), "symmetric")
    assert result.value == pytest.approx(4.0, abs=1e-6)


def test_chsh_singlet_free_maximum():
    result = maximize(catalog("chsh"), singlet(), "free")
    assert result.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert result.point.mode == "free"
    assert set(result.point.as_dict()) == {"q1:A", "q1:B", "q2:A", "q2:B"}


def test_ch_singlet_free_maximum():
    result = maximize(catalog("ch"), singlet(), "free")
    assert result.value == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-9)


def test_free_mode_never_loses_to_symmetric():
    symmetric = maximize(catalog("mermin"), w(), "symmetric")
    free = maximize(catalog("mermin"), w(), "free", grid_step=0.5)
    assert free.value >= symmetric.value - 1e-9


def test_certify_eq14_ghz():
    certification = certify_below(catalog("eq14"), ghz(), 4.0, "symmetric")
    assert certification.certified
    assert certification.maximum.grid_step <= 0.02
    assert certification.maximum.value == pytest.approx(4.0, abs=1e-6)


def test_certify_eq14_w_fails():
    certification = certify_below(catalog("eq14"), w(), 4.0, "symmetric")
    assert not certification.certified
    assert certification.maximum.value == pytest.approx(5.0, abs=1e-6)


def test_certification_as_dict():
    payload = certify_below(catalog("eq14"), ghz(), 4.0, "symmetric").as_dict()
    assert payload["certified"] is True
    assert payload["bound"] == 4.0
    assert set(payload["maximum"]["angles"]) == {"A", "B"}


def test_determinism():
    # a second call, with the plan the first one built, gives the same payload
    for name, state, mode in [
        ("mermin", w(), "symmetric"),
        ("eq14", ghz(), "symmetric"),
        ("chsh", singlet(), "free"),
        ("ch", hardy(0.4347), "free"),
    ]:
        first = maximize(catalog(name), state, mode)
        second = maximize(catalog(name), state, mode)
        assert first.as_dict() == second.as_dict(), (name, mode)


def test_budget_guard_free_three_qubits():
    with pytest.raises(BudgetExceededError):
        maximize(catalog("mermin"), ghz(), "free", budget=10**6)
    with pytest.raises(BudgetExceededError):
        maximize(catalog("chsh"), singlet(), "free", budget=1000)


def test_mode_validation():
    with pytest.raises(ConfigError):
        maximize(catalog("mermin"), w(), "both")


def test_objective_matches_quantum_value():
    # dual route: the trigonometric atoms against the term-by-term quantum
    # value, for every catalog entry on the catalog states of its size
    states = {3: (w(), ghz()), 2: (singlet(), hardy(0.4347))}
    rng = np.random.default_rng(11)
    for name in catalog_ids():
        expression = catalog(name)
        for state in states[expression.num_qubits]:
            for mode in ("symmetric", "free"):
                objective = PlaneObjective(expression, state, mode)
                for _ in range(3):
                    angles = rng.uniform(0.0, TWO_PI, size=objective.num_dims)
                    binding = plane_binding(objective, angles)
                    assert plane_value(objective, angles) == pytest.approx(
                        quantum_value(expression, state, binding), abs=1e-12
                    ), (name, mode)


def test_objective_grid_matches_pointwise():
    objective = PlaneObjective(catalog("mermin"), w(), "symmetric")
    axes = [np.linspace(0.0, TWO_PI, 7, endpoint=False) for _ in range(2)]
    grid = objective.grid_values(axes)
    assert grid.shape == (7, 7)
    for i in range(7):
        for j in range(7):
            assert grid[i, j] == pytest.approx(
                plane_value(objective, np.array([axes[0][i], axes[1][j]])), abs=1e-12
            )


def test_mermin_negates_under_a_global_angle_shift():
    # every mermin term holds an odd number of observables, so shifting all
    # angles by pi negates the value
    objective = PlaneObjective(catalog("mermin"), w(), "symmetric")
    point = np.array([0.7, 2.1])
    assert plane_value(objective, point + math.pi) == pytest.approx(
        -plane_value(objective, point), abs=1e-12
    )


def test_angle_point_normalization():
    point = AnglePoint("symmetric", ("A", "B"), (-0.5, TWO_PI + 0.25))
    assert point.angles[0] == pytest.approx(TWO_PI - 0.5)
    assert point.angles[1] == pytest.approx(0.25)
    assert set(point.as_dict()) == {"A", "B"}


def test_hardy_maximum_frozen_values():
    optimum = hardy_maximum()
    assert optimum.value == pytest.approx(GOLDEN_RATIO_PROBABILITY, abs=1e-6)
    assert optimum.hardy_probability == pytest.approx(optimum.value, abs=1e-12)
    assert optimum.state_angle == pytest.approx(0.4346935, abs=1e-4)
    assert optimum.report.checks_passed
    assert optimum.report.p4 <= 1e-12
    assert optimum.evaluations > 0
    payload = optimum.as_dict()
    assert set(payload["angles"]) == {"a1", "b1", "a2", "b2"}


def test_hardy_maximum_is_the_closed_form():
    # sin 2 theta* = 3 - sqrt 5, where P = (5 sqrt 5 - 11) / 2 and both
    # premise probabilities are sqrt 5 - 2; never below the grid search
    optimum = hardy_maximum()
    assert abs(optimum.state_angle - 0.5 * math.asin(3.0 - math.sqrt(5.0))) <= 1e-15
    assert abs(optimum.value - GOLDEN_RATIO_PROBABILITY) <= 1e-15
    for check in optimum.report.conditionals:
        assert abs(check.premise_probability - (math.sqrt(5.0) - 2.0)) <= 1e-15
    assert optimum.value >= grid_hardy_search()[0] - 1e-12


def test_hardy_maximum_at_a_fixed_state_angle():
    # [c s (c - s) / (1 - c s)]^2 on cos(theta)|++> + sin(theta)|-->
    for theta in (1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, math.pi / 4.0):
        c, s = math.cos(theta), math.sin(theta)
        vacuous = theta == math.pi / 4.0
        with pytest.warns(UserWarning, match="maximally entangled") if vacuous else nullcontext():
            value = hardy_maximum(state_angle=theta).value
        assert abs(value - (c * s * (c - s) / (1.0 - c * s)) ** 2) <= 1e-14, theta
        assert value >= grid_hardy_search(theta)[0] - 1e-12, theta


def test_hardy_maximum_angles_are_the_chain_at_the_optimal_beta2():
    # tan^2(pi/4 - beta2/2) = cot theta, so beta2 = pi/2 + 2 atan sqrt(cot theta)
    theta_star = 0.5 * math.asin(3.0 - math.sqrt(5.0))
    for theta in (1e-6, 0.01, 0.1, theta_star, 0.5, 0.7, math.pi / 4.0):
        beta2 = math.pi / 2.0 + 2.0 * math.atan(math.sqrt(1.0 / math.tan(theta)))
        _, oracle = scalar_hardy_chain(theta, beta2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # vacuous at pi/4
            angles = hardy_maximum(state_angle=theta).angles
        for found, want in zip(angles, oracle):
            assert _circular_distance(found, want) <= 1e-12, theta


def test_hardy_maximum_at_the_maximally_entangled_boundary():
    with pytest.warns(UserWarning):
        optimum = hardy_maximum(state_angle=math.pi / 4.0)
    assert abs(optimum.value) <= 1e-9


def test_hardy_maximum_small_angle_limit():
    optimum = hardy_maximum(state_angle=0.01)
    assert 0.0 < optimum.value < 1e-3


def test_hardy_maximum_rejects_bad_state_angle():
    with pytest.raises(ConfigError):
        hardy_maximum(state_angle=1.0)


def test_three_qubit_free_mode_runs():
    # one qubit closed exactly, a 13^4 grid over the other two qubits' angles
    free = maximize(catalog("mermin"), ghz(), "free", grid_step=0.5)
    assert free.value == pytest.approx(4.0, abs=1e-6)
    free = maximize(catalog("mermin"), w(), "free", grid_step=0.5)
    assert free.value >= MERMIN_W_MAX - 1e-6


def _random_state(rng, num_qubits):
    amplitudes = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amplitudes / np.linalg.norm(amplitudes))


def test_closed_qubit_oracle():
    # free mode: the closed-form maximum over the closed qubit's angles
    # against the plain objective, equal at the recovered angles and never
    # beaten by a scan of any one closed angle; both modes: the factored grid
    # against the atom-by-atom broadcast oracle and the pointwise closed
    # form, and under the tie rule the same winner (angles and evaluations)
    # from maximize on either grid.  The oracle route of three-qubit free
    # mode also takes one grid row per slab, so slabs cannot move the winner.
    rng = np.random.default_rng(5)
    states = {
        3: (w(), ghz(), _random_state(rng, 3)),
        2: (singlet(), hardy(0.4347), _random_state(rng, 2)),
    }
    scan = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    for name in catalog_ids():
        expression = catalog(name)
        for state, mode in product(states[expression.num_qubits], ("symmetric", "free")):
            objective = PlaneObjective(expression, state, mode)
            axes = [
                np.linspace(0.0, TWO_PI, 3 + d, endpoint=False)
                for d in range(len(objective.open_dims))
            ]
            grid = objective.grid_values(axes)
            oracle = broadcast_grid_values(objective, axes)
            assert np.max(np.abs(grid - oracle)) <= 1e-12, (name, mode)
            for index in np.ndindex(grid.shape):
                point = np.array([axes[d][i] for d, i in enumerate(index)])
                assert grid[index] == pytest.approx(objective.best_value(point), abs=1e-12)

            step = 0.5 if (mode, expression.num_qubits) == ("free", 3) else None
            found = maximize(expression, state, mode, grid_step=step)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(PlaneObjective, "grid_values", broadcast_grid_values)
                if step is not None:
                    patch.setattr("bell3q.optimize.GRID_SLAB_POINTS", 13**3)
                expected = maximize(expression, state, mode, grid_step=step)
            assert found.point.angles == expected.point.angles, (name, mode)
            assert found.evaluations == expected.evaluations, (name, mode)

            if mode == "symmetric":
                assert not objective.closed_dims
                continue
            assert objective.closed_dims
            open_angles = rng.uniform(0.0, TWO_PI, size=len(objective.open_dims))
            best = objective.best_value(open_angles)
            angles = objective.complete(open_angles)
            assert np.array_equal(angles[list(objective.open_dims)], open_angles)
            assert best == pytest.approx(plane_value(objective, angles), abs=1e-12), name
            for dim in objective.closed_dims:
                trial = angles.copy()
                for t in scan:
                    trial[dim] = t
                    assert plane_value(objective, trial) <= best + 1e-12, (name, dim)


def test_flat_atoms_match_the_summed_oracle():
    # bit for bit: the flat atoms on math.cos and math.sin against the
    # public atoms summed one by one on np.cos and np.sin, at random open
    # points and through a whole maximize with the oracle in their place
    rng = np.random.default_rng(17)
    states = {
        3: (w(), ghz(), _random_state(rng, 3)),
        2: (singlet(), hardy(0.4347), _random_state(rng, 2)),
    }
    for name in catalog_ids():
        expression = catalog(name)
        for state, mode in product(states[expression.num_qubits], ("symmetric", "free")):
            objective = PlaneObjective(expression, state, mode)
            points = rng.uniform(0.0, TWO_PI, size=(50, len(objective.open_dims)))
            found = [(objective.best_value(p), objective.complete(p)) for p in points]
            step = 0.5 if (mode, expression.num_qubits) == ("free", 3) else None
            result = maximize(expression, state, mode, grid_step=step)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(PlaneObjective, "_parts", summed_parts)
                for point, (best, angles) in zip(points, found):
                    assert objective.best_value(point) == best, (name, mode)
                    assert np.array_equal(objective.complete(point), angles), (name, mode)
                expected = maximize(expression, state, mode, grid_step=step)
            assert result.value == expected.value, (name, mode)
            assert result.point.angles == expected.point.angles, (name, mode)
            assert result.evaluations == expected.evaluations, (name, mode)


def test_hardy_maximum_rejects_underflowing_state_angle():
    for angle in (1e-200, 1e-7):
        with pytest.raises(ConfigError):
            hardy_maximum(state_angle=angle)
    assert hardy_maximum(state_angle=1e-6).value >= 0.0


def _catalog_cases(rng):
    """Every catalog entry on GHZ, W, the singlet, hardy(0.4347) and a seeded
    random state of its size, in both modes; three-qubit free mode at grid
    step 0.5."""
    states = {
        3: (ghz(), w(), _random_state(rng, 3)),
        2: (singlet(), hardy(0.4347), _random_state(rng, 2)),
    }
    for name in catalog_ids():
        expression = catalog(name)
        for state, mode in product(states[expression.num_qubits], ("symmetric", "free")):
            step = 0.5 if (mode, expression.num_qubits) == ("free", 3) else None
            yield expression, state, mode, step


def _shared_label_expression(rng, num_qubits, magnitude=lambda rng: float(rng.integers(1, 4))):
    """A seeded expression of correlators and probabilities on random
    subsets and outcomes, each qubit's label drawn from A and B per term, so
    that labels recur across qubits; each coefficient is ``magnitude(rng)``
    with a random sign."""
    lines = []
    for _ in range(int(rng.integers(2, 6))):
        labels = " ".join(f"q{q}:{rng.choice(['A', 'B'])}" for q in range(1, num_qubits + 1))
        coefficient = magnitude(rng) * rng.choice([-1.0, 1.0])
        if rng.random() < 0.5:
            size = int(rng.integers(1, num_qubits + 1))
            subset = sorted(rng.choice(np.arange(1, num_qubits + 1), size, replace=False))
            lines.append(f"{coefficient} CORR {labels} SUBSET={','.join(map(str, subset))}")
        else:
            outcomes = "".join(rng.choice(["+", "-"]) for _ in range(num_qubits))
            lines.append(f"{coefficient} PROB {labels} ACCEPT={outcomes}")
    return parse_expression_text("\n".join(lines) + "\n")


def test_grid_rounding_does_not_steer_the_refinement():
    # the grid only proposes starts: every grid value one ulp lower leaves
    # every field but grid_value bit for bit unchanged
    rng = np.random.default_rng(37)
    cases = list(_catalog_cases(rng))
    non_dyadic = lambda rng: float(rng.choice([0.1, 0.7, 1.0 / 3.0, 2.0 / 3.0, 1.3]))
    for num_qubits in (2, 3) * 15:
        expression = _shared_label_expression(rng, num_qubits, non_dyadic)
        state = _random_state(rng, num_qubits)
        step = 0.5 if num_qubits == 3 else None
        cases += [(expression, state, "symmetric", None), (expression, state, "free", step)]
    grid_values = PlaneObjective.grid_values
    for index, (expression, state, mode, step) in enumerate(cases):
        found = maximize(expression, state, mode, grid_step=step).as_dict()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                PlaneObjective,
                "grid_values",
                lambda self, axes: np.nextafter(grid_values(self, axes), -np.inf),
            )
            lowered = maximize(expression, state, mode, grid_step=step).as_dict()
        assert lowered.pop("grid_value") < found.pop("grid_value")
        assert lowered == found, (index, mode)


def _scored_sequential_refine(evaluate, start, initial_step):
    """``sequential_refine`` from the objective's own value at ``start``,
    the signature of ``_refine``."""
    return sequential_refine(evaluate, start, evaluate(start), initial_step)


def test_refinement_memo_matches_the_sequential_oracle():
    # bit for bit, evaluations included: maximize and certify_below with
    # _refine against the search that evaluates every trial
    rng = np.random.default_rng(23)
    calls = [
        (maximize, (expression, state, mode), {"grid_step": step})
        for expression, state, mode, step in _catalog_cases(rng)
    ]
    for num_qubits in (2, 2, 3, 3):
        expression = _shared_label_expression(rng, num_qubits)
        state = _random_state(rng, num_qubits)
        calls.append((maximize, (expression, state, "symmetric"), {}))
        if num_qubits == 2:
            calls.append((maximize, (expression, state, "free"), {}))
    calls += [
        (certify_below, (catalog("eq14"), w(), 4.0), {}),
    ]
    for function, args, options in calls:
        found = function(*args, **options).as_dict()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bell3q.optimize, "_refine", _scored_sequential_refine)
            expected = function(*args, **options).as_dict()
        assert found == expected, (function.__name__, args)


def test_refinement_evaluates_each_distinct_trial_once():
    # the oracle evaluates the start and every trial; _refine evaluates each
    # distinct point, the start included, once and counts every trial
    rng = np.random.default_rng(29)
    searches = []
    for expression, state, mode in [
        (catalog("mermin"), w(), "symmetric"),
        (catalog("eq14"), _random_state(rng, 3), "symmetric"),
        (catalog("ch"), hardy(0.4347), "free"),
    ]:
        objective = PlaneObjective(expression, state, mode)
        start = rng.uniform(0.0, TWO_PI, size=len(objective.open_dims))
        searches.append((objective.best_value, start, 0.05))
    for evaluate, start, step in searches:
        trials, calls = [], []
        expected = _scored_sequential_refine(
            lambda p: trials.append(tuple(p)) or evaluate(p), start, step
        )
        found = _refine(lambda p: calls.append(tuple(p)) or evaluate(p), start, step)
        assert len(calls) == len(set(calls)) == len(set(trials)) < len(trials)
        assert set(calls) == set(trials) and calls[0] == trials[0] == tuple(start)
        assert found[2] == expected[2] == len(trials) - 1
        assert np.array_equal(found[0], expected[0]) and found[1] == expected[1]


def test_refinement_scores_its_own_start():
    # the start is evaluated first and is the value to beat: a flat
    # objective takes no move, and the start reaches the evaluator once
    start = [0.5, 0.5]
    calls = []

    def flat(point):
        calls.append(tuple(point))
        return 1.0

    point, value, evaluations = _refine(flat, np.array(start), 0.25)
    assert calls[0] == tuple(start) and calls.count(tuple(start)) == 1
    assert value == 1.0 and np.array_equal(point, start)
    assert evaluations == len(calls) - 1 == _scored_sequential_refine(flat, start, 0.25)[2]


def test_plane_plan_is_built_once_per_expression_and_mode(monkeypatch):
    built = []
    original = PlanePlan._build.__func__

    def counting(cls, expression, mode):
        built.append(mode)
        return original(cls, expression, mode)

    monkeypatch.setattr(PlanePlan, "_build", classmethod(counting))
    text = "1 CORR q1:A q2:B SUBSET=1,2\n-1 PROB q1:B q2:A ACCEPT=+-\n"
    expression = parse_expression_text(text)
    plans = [PlaneObjective(expression, state, "symmetric").plan for state in (singlet(), hardy(0.3))]
    assert built == ["symmetric"] and plans[0] is plans[1]
    free = PlaneObjective(expression, singlet(), "free").plan
    maximize(expression, hardy(0.3), "free")
    assert built == ["symmetric", "free"] and free is not plans[0]
    assert expression.plane_plans == {"symmetric": plans[0], "free": free}
    # two parses of one text are two expressions with a plan each
    again = parse_expression_text(text)
    assert PlaneObjective(again, singlet(), "symmetric").plan is not plans[0]
    assert built == ["symmetric", "free", "symmetric"]


def test_plane_plan_is_immutable():
    plan = PlaneObjective(catalog("mermin"), w(), "free").plan
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.constant = 1.0
    with pytest.raises(ValueError):
        plan.entries[0] = 0
    assert all(isinstance(atom, tuple) for atom in plan.atoms)
    assert isinstance(plan.atoms, tuple) and isinstance(plan.dims, tuple)


CATALOG_ATOMS = {
    "cabello_ch": 32, "cabello_ch_literal": 30, "cabello_ch_fixed": 24, "mermin": 32,
    "eq13": 44, "eq14": 44, "chsh": 16, "ch": 16,
}


def test_objective_from_its_plan_matches_a_direct_build():
    # the plan merges the direct build's per-term atoms that read the same
    # tensor entry with the same factors: those groups, ordered by the first
    # term that reaches them and within a term in table order (the support
    # as a mask, qubit 1 most significant), are the objective's atoms, and
    # each coefficient is its group's sum in term order within
    # (size + 2) eps of the group's l1 norm; a group missing from the
    # objective cancels to within that bound.  The evaluators agree with the
    # oracles over the direct build's atoms within 1e-12.
    rng = np.random.default_rng(31)
    cases = [(expression, state, mode) for expression, state, mode, _ in _catalog_cases(rng)]
    for num_qubits in (2, 3):
        expression = _shared_label_expression(rng, num_qubits)
        for mode in ("symmetric", "free"):
            cases.append((expression, _random_state(rng, num_qubits), mode))
    non_dyadic = lambda rng: float(rng.choice([0.1, 0.7, 1.0 / 3.0, 2.0 / 3.0, 1.3]))
    for num_qubits in (2, 3) * 5:
        expression = _shared_label_expression(rng, num_qubits, non_dyadic)
        for mode in ("symmetric", "free"):
            cases.append((expression, _random_state(rng, num_qubits), mode))
    merged = 0
    for expression, state, mode in cases:
        objective = PlaneObjective(expression, state, mode)
        constant, atoms, origins = direct_objective(expression, state, mode)
        assert objective.constant == pytest.approx(constant, abs=1e-12)
        groups: dict = {}  # (tensor index, factors): [first term, sum, l1 norm, size]
        for (coefficient, factors), (term, index) in zip(atoms, origins):
            group = groups.setdefault((index, factors), [term, 0.0, 0.0, 0])
            group[1] += coefficient
            group[2] += abs(coefficient)
            group[3] += 1
        ordered = sorted(groups, key=lambda key: (groups[key][0], tuple(i > 0 for i in key[0])))
        found = iter(objective.atoms)
        atom = next(found, None)
        for key in ordered:
            _, total, norm, size = groups[key]
            bound = (size + 2) * np.finfo(float).eps * norm
            if atom is not None and atom[1] == key[1] and abs(atom[0] - total) <= bound:
                atom = next(found, None)
            else:
                assert abs(total) <= bound, (expression.name, mode, key)
        assert atom is None, (expression.name, mode)
        merged += len(atoms) - len(objective.atoms)

        reference = SimpleNamespace(
            open_dims=objective.open_dims, closed_dims=objective.closed_dims,
            constant=constant, atoms=atoms,
        )
        axes = [np.linspace(0.0, TWO_PI, 3 + d, endpoint=False) for d in range(len(objective.open_dims))]
        grid = objective.grid_values(axes)
        assert np.max(np.abs(grid - broadcast_grid_values(reference, axes))) <= 1e-12
        for point in rng.uniform(0.0, TWO_PI, size=(5, len(objective.open_dims))):
            parts = summed_parts(reference, point)
            assert np.max(np.abs(np.subtract(objective._parts(point), parts))) <= 1e-12
    assert merged > 0
    for name, count in CATALOG_ATOMS.items():
        for mode in ("symmetric", "free"):
            assert len(PlanePlan.of(catalog(name), mode).atoms) == count, (name, mode)


def test_four_qubit_expression_builds_no_plan():
    # states have at most three qubits, and the objective matches the state
    # before it builds a plan, so no point form has a fourth open factor
    expression = parse_expression_text("1 CORR q1:A q2:B q3:A q4:B SUBSET=1,2,3,4\n")
    for mode in ("symmetric", "free"):
        with pytest.raises(ContractViolationError):
            PlaneObjective(expression, w(), mode)
    assert expression.plane_plans == {}
