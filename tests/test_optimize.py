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
import math

import numpy as np
import pytest

from bell3q import (
    AnglePoint,
    BudgetExceededError,
    ConfigError,
    PlaneObjective,
    StateVector,
    catalog,
    catalog_ids,
    certify_below,
    ghz,
    hardy,
    hardy_maximum,
    maximize,
    quantum_value,
    singlet,
    w,
)
from bell3q.optimize import _hardy_chain

from conftest import scalar_hardy_chain, scalar_hardy_grid

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
    assert result.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert result.point.mode == "free"
    assert set(result.point.as_dict()) == {"q1:A", "q1:B", "q2:A", "q2:B"}


def test_ch_singlet_free_maximum():
    result = maximize(catalog("ch"), singlet(), "free")
    assert result.value == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-6)


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
    first = maximize(catalog("mermin"), w(), "symmetric")
    second = maximize(catalog("mermin"), w(), "symmetric")
    assert first.value == second.value
    assert first.point.angles == second.point.angles
    assert first.evaluations == second.evaluations


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
                    binding = objective.binding(angles)
                    assert objective.value(angles) == pytest.approx(
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
                objective.value(np.array([axes[0][i], axes[1][j]])), abs=1e-12
            )


def test_mermin_negates_under_a_global_angle_shift():
    # every mermin term holds an odd number of observables, so shifting all
    # angles by pi negates the value
    objective = PlaneObjective(catalog("mermin"), w(), "symmetric")
    point = np.array([0.7, 2.1])
    assert objective.value(point + math.pi) == pytest.approx(
        -objective.value(point), abs=1e-12
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
    # the closed-form maximum over the closed qubit's angles against the
    # plain objective: equal at the recovered angles, never beaten by a scan
    # of any one closed angle, and the same on the open grid
    rng = np.random.default_rng(5)
    states = {
        3: (w(), ghz(), _random_state(rng, 3)),
        2: (singlet(), hardy(0.4347), _random_state(rng, 2)),
    }
    scan = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    for name in catalog_ids():
        expression = catalog(name)
        for state in states[expression.num_qubits]:
            objective = PlaneObjective(expression, state, "free")
            assert objective.closed_dims
            open_angles = rng.uniform(0.0, TWO_PI, size=len(objective.open_dims))
            best = objective.best_value(open_angles)
            angles = objective.complete(open_angles)
            assert np.array_equal(angles[list(objective.open_dims)], open_angles)
            assert best == pytest.approx(objective.value(angles), abs=1e-12), name
            for dim in objective.closed_dims:
                trial = angles.copy()
                for t in scan:
                    trial[dim] = t
                    assert objective.value(trial) <= best + 1e-12, (name, dim)
            axes = [np.linspace(0.0, TWO_PI, 3, endpoint=False)] * len(objective.open_dims)
            grid = objective.grid_values(axes)
            for index in np.ndindex(grid.shape):
                point = np.array([axes[d][i] for d, i in enumerate(index)])
                assert grid[index] == pytest.approx(objective.best_value(point), abs=1e-12)


def test_hardy_chain_broadcast_matches_scalar_loop():
    thetas = np.linspace(0.005, math.pi / 4.0, 64)
    betas = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    expected, winner = scalar_hardy_grid(thetas, betas)
    values, angles = _hardy_chain(thetas[:, None], betas[None, :])
    assert np.max(np.abs(values - expected)) <= 1e-15
    first = np.flatnonzero(values >= values.max() - 1e-12)[0]
    assert np.unravel_index(first, values.shape) == winner
    angles = [np.broadcast_to(angle, values.shape) for angle in angles]
    for i, theta in enumerate(thetas):
        for j, beta in enumerate(betas):
            _, oracle = scalar_hardy_chain(float(theta), float(beta))
            for found, want in zip(angles, oracle):
                # angles near 2 pi: a few units in the last place
                assert _circular_distance(found[i, j], want) <= 4e-15


def test_hardy_maximum_rejects_underflowing_state_angle():
    for angle in (1e-200, 1e-7):
        with pytest.raises(ConfigError):
            hardy_maximum(state_angle=angle)
    assert hardy_maximum(state_angle=1e-6).value >= 0.0
