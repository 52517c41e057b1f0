"""Measurement, correlator, partial trace and concurrence primitives.

The numeric targets here are frozen oracle values computed by hand from the
catalog amplitudes, not by running the code under test:

  w state      = (|+--> + |-+-> + |--+>) / sqrt(3)
  ghz state    = (1/2) (|+++> - |+--> - |-+-> - |--+>)

All-z probabilities follow from squared amplitudes; pair correlators from
counting signs over the support; the reduced density matrices have closed
forms, and their concurrences follow from the two-qubit X-state formula
C = 2 max(0, |r23| - sqrt(r11 r44), |r14| - sqrt(r22 r33)).
"""
import cmath
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell3q import (
    ContractViolationError,
    DensityMatrix,
    Observable,
    StateVector,
    basis_index,
    concurrence,
    outcome_tuples,
    partial_trace,
)

from conftest import (
    MeasurementContext,
    UndefinedConditionalError,
    all_z,
    basis_state,
    brute_force_correlator,
    conditional_probability,
    correlator,
    event_probability,
    make_context,
    observable_matrix,
    outcome_probability,
    permute_qubits,
    projector,
)

SQRT2 = math.sqrt(2.0)


def test_outcome_tuples_order_and_indexing():
    tuples = outcome_tuples(2)
    assert tuples == ((1, 1), (1, -1), (-1, 1), (-1, -1))
    for index, outcomes in enumerate(outcome_tuples(3)):
        assert basis_index(outcomes) == index


def test_w_two_minus_probability_is_one_third(w_state):
    # each |+--> style component of the support has squared amplitude 1/3
    assert outcome_probability(w_state, all_z(3), (-1, -1, 1)) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )
    assert outcome_probability(w_state, all_z(3), (1, 1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_ghz_all_plus_probability_is_one_quarter(ghz_state):
    assert outcome_probability(ghz_state, all_z(3), (1, 1, 1)) == pytest.approx(
        0.25, abs=1e-12
    )
    assert outcome_probability(ghz_state, all_z(3), (1, 1, -1)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_pair_z_correlators(w_state, ghz_state):
    # w support always has exactly one +1 among any pair's context partners:
    # outcomes (+,-), (-,+) each 1/3 and (-,-) 1/3, so <z z> = -1/3.
    # ghz support weights (+,+), (+,-), (-,+), (-,-) equally, so 0.
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert correlator(w_state, all_z(3), pair) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert correlator(ghz_state, all_z(3), pair) == pytest.approx(0.0, abs=1e-12)


def test_triple_z_correlator(w_state, ghz_state):
    # every support component of either state carries an even number of -1
    assert correlator(w_state, all_z(3)) == pytest.approx(1.0, abs=1e-12)
    assert correlator(ghz_state, all_z(3)) == pytest.approx(1.0, abs=1e-12)


def test_marginal_correlator_ignores_outside_observables(w_state):
    mixed = make_context(Observable.z(), Observable.z(), Observable.x())
    assert correlator(w_state, mixed, (1, 2)) == pytest.approx(
        correlator(w_state, all_z(3), (1, 2)), abs=1e-15
    )


def test_correlator_matches_brute_force_distribution(w_state, ghz_state):
    angles = (0.3, 1.1, 2.7)
    context = make_context(*(Observable.xz_plane(a) for a in angles))
    for state in (w_state, ghz_state):
        for subset in ((1,), (2, 3), (1, 2, 3)):
            assert correlator(state, context, subset) == pytest.approx(
                brute_force_correlator(state, context, subset), abs=1e-12
            )


def test_event_probability_deduplicates(w_state):
    once = event_probability(w_state, all_z(3), [(-1, -1, 1)])
    twice = event_probability(w_state, all_z(3), [(-1, -1, 1), (-1, -1, 1)])
    assert twice == pytest.approx(once, abs=0.0)


def test_completeness_over_all_outcomes(w_state, ghz_state, singlet_state):
    context2 = make_context(Observable.xz_plane(0.4), Observable.y())
    assert sum(
        outcome_probability(singlet_state, context2, o) for o in outcome_tuples(2)
    ) == pytest.approx(1.0, abs=1e-12)
    context3 = make_context(Observable.x(), Observable.y(), Observable.xz_plane(2.2))
    for state in (w_state, ghz_state):
        assert sum(
            outcome_probability(state, context3, o) for o in outcome_tuples(3)
        ) == pytest.approx(1.0, abs=1e-12)


def test_conditional_probability_w_chain(w_state):
    # measuring z on qubit 1 and x elsewhere, a -1 on qubit 1 forces agreement
    context = make_context(Observable.z(), Observable.x(), Observable.x())
    agree = [o for o in outcome_tuples(3) if o[1] == o[2]]
    given = [o for o in outcome_tuples(3) if o[0] == -1]
    assert conditional_probability(w_state, context, agree, given) == pytest.approx(
        1.0, abs=1e-12
    )


def test_conditional_on_null_event_raises():
    plus_all = basis_state(3, 0)
    given = [o for o in outcome_tuples(3) if o[0] == -1]
    agree = [o for o in outcome_tuples(3) if o[1] == o[2]]
    with pytest.raises(UndefinedConditionalError):
        conditional_probability(plus_all, all_z(3), agree, given)


def test_global_phase_invariance(w_state):
    phase = cmath.exp(0.7j)
    rotated = StateVector(3, phase * w_state.amplitudes)
    context = make_context(Observable.x(), Observable.xz_plane(1.3), Observable.y())
    for outcomes in outcome_tuples(3):
        assert outcome_probability(rotated, context, outcomes) == pytest.approx(
            outcome_probability(w_state, context, outcomes), abs=1e-12
        )
    assert correlator(rotated, context) == pytest.approx(
        correlator(w_state, context), abs=1e-12
    )


def test_state_vector_contracts():
    with pytest.raises(ContractViolationError):
        StateVector(3, np.ones(8))
    with pytest.raises(ContractViolationError):
        StateVector(1, np.array([1.0, 0.0]))
    with pytest.raises(ContractViolationError):
        StateVector(2, np.array([1.0, 0.0, 0.0]))
    nudged = np.zeros(4)
    nudged[0] = 1.0 + 5e-10
    state = StateVector(2, nudged)
    assert state.amplitudes[0] == pytest.approx(1.0 + 5e-10)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_observable_contracts():
    with pytest.raises(ContractViolationError):
        Observable((1.0, 1.0, 0.0))
    with pytest.raises(ContractViolationError):
        projector(Observable.z(), 0)
    direction = Observable.xz_plane(0.25).direction
    assert direction[0] == pytest.approx(math.cos(0.25))
    assert direction[1] == 0.0
    assert direction[2] == pytest.approx(math.sin(0.25))


def test_projector_algebra_random_directions():
    rng = np.random.default_rng(7)
    for _ in range(10):
        vec = rng.normal(size=3)
        obs = Observable(tuple(vec / np.linalg.norm(vec)))
        plus, minus = projector(obs, 1), projector(obs, -1)
        assert np.allclose(plus + minus, np.eye(2), atol=1e-12)
        assert np.allclose(plus @ plus, plus, atol=1e-12)
        assert np.allclose(plus @ minus, np.zeros((2, 2)), atol=1e-12)
        assert np.allclose(
            plus - minus, observable_matrix(obs), atol=1e-12
        )


def test_no_signaling_marginals(w_state, ghz_state):
    # the qubit-1 marginal cannot depend on what is measured elsewhere
    for state in (w_state, ghz_state):
        contexts = [
            make_context(Observable.z(), Observable.x(), Observable.x()),
            make_context(Observable.z(), Observable.y(), Observable.xz_plane(0.9)),
            make_context(Observable.z(), Observable.z(), Observable.z()),
        ]
        marginals = [
            sum(
                outcome_probability(state, context, o)
                for o in outcome_tuples(3)
                if o[0] == -1
            )
            for context in contexts
        ]
        assert marginals[0] == pytest.approx(marginals[1], abs=1e-12)
        assert marginals[0] == pytest.approx(marginals[2], abs=1e-12)


def _projector_from_vector(vector):
    vector = np.asarray(vector, dtype=complex)
    return np.outer(vector, vector.conj())


def test_partial_trace_w_closed_form(w_state):
    # tracing any qubit of w leaves 2/3 |psi+><psi+| + 1/3 |--><--|
    psi_plus = np.array([0.0, 1.0, 1.0, 0.0]) / SQRT2
    both_minus = np.array([0.0, 0.0, 0.0, 1.0])
    expected = (2.0 / 3.0) * _projector_from_vector(psi_plus) + (
        1.0 / 3.0
    ) * _projector_from_vector(both_minus)
    for traced in (1, 2, 3):
        reduced = partial_trace(w_state, traced)
        assert np.allclose(reduced.matrix, expected, atol=1e-12)


def test_partial_trace_ghz_closed_form(ghz_state):
    # tracing any qubit of ghz leaves an equal mixture of the two
    # same-handed y product states
    plus_y = np.array([1.0, 1.0j]) / SQRT2
    minus_y = np.array([1.0, -1.0j]) / SQRT2
    expected = 0.5 * _projector_from_vector(np.kron(plus_y, plus_y)) + (
        0.5
    ) * _projector_from_vector(np.kron(minus_y, minus_y))
    for traced in (1, 2, 3):
        reduced = partial_trace(ghz_state, traced)
        assert np.allclose(reduced.matrix, expected, atol=1e-12)


def test_partial_trace_unit_trace_and_positivity(w_state):
    reduced = partial_trace(w_state, 2)
    assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(reduced.matrix).min() >= -1e-12


def _x_state_concurrence(rho):
    # oracle: closed form for density matrices with only diagonal and
    # antidiagonal entries in the z product basis
    r = np.asarray(rho)
    c1 = abs(r[1, 2]) - math.sqrt(abs(r[0, 0] * r[3, 3]))
    c2 = abs(r[0, 3]) - math.sqrt(abs(r[1, 1] * r[2, 2]))
    return 2.0 * max(0.0, c1, c2)


def test_concurrence_of_w_reduction_is_two_thirds(w_state):
    for traced in (1, 2, 3):
        reduced = partial_trace(w_state, traced)
        assert concurrence(reduced) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert concurrence(reduced) == pytest.approx(
            _x_state_concurrence(reduced.matrix), abs=1e-12
        )


def test_concurrence_of_ghz_reduction_is_zero(ghz_state):
    for traced in (1, 2, 3):
        reduced = partial_trace(ghz_state, traced)
        assert concurrence(reduced) == pytest.approx(0.0, abs=1e-12)
        assert concurrence(reduced) == pytest.approx(
            _x_state_concurrence(reduced.matrix), abs=1e-12
        )


def test_concurrence_extremes(singlet_state):
    maximally = DensityMatrix(
        np.outer(singlet_state.amplitudes, singlet_state.amplitudes.conj())
    )
    assert concurrence(maximally) == pytest.approx(1.0, abs=1e-12)
    product_state = basis_state(2, 0)
    separable = DensityMatrix(
        np.outer(product_state.amplitudes, product_state.amplitudes.conj())
    )
    assert concurrence(separable) == pytest.approx(0.0, abs=1e-12)


def test_density_matrix_contracts():
    with pytest.raises(ContractViolationError):
        DensityMatrix(np.eye(4))
    skewed = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skewed[0, 1] = 0.3
    with pytest.raises(ContractViolationError):
        DensityMatrix(skewed)


def test_permute_qubits_moves_basis_labels():
    # permutation (2, 3, 1): new qubit 1 reads old qubit 2, and so on
    state = basis_state(3, basis_index((1, -1, -1)))
    permuted = permute_qubits(state, (2, 3, 1))
    assert permuted.amplitudes[basis_index((-1, -1, 1))] == pytest.approx(1.0)


def test_permute_qubits_preserves_symmetric_states(w_state, ghz_state):
    for perm in permutations((1, 2, 3)):
        for state in (w_state, ghz_state):
            assert np.allclose(
                permute_qubits(state, perm).amplitudes, state.amplitudes, atol=1e-12
            )


def test_permute_qubits_rejects_bad_permutations(w_state):
    with pytest.raises(ContractViolationError):
        permute_qubits(w_state, (1, 1, 2))
    with pytest.raises(ContractViolationError):
        permute_qubits(w_state, (1, 2))


def test_context_qubit_count_mismatch(w_state):
    with pytest.raises(ContractViolationError):
        outcome_probability(w_state, all_z(2), (1, 1))
    with pytest.raises(ContractViolationError):
        outcome_probability(w_state, all_z(3), (1, 1))
    with pytest.raises(ContractViolationError):
        outcome_probability(w_state, all_z(3), (1, 1, 2))


def test_correlator_subset_contracts(w_state):
    with pytest.raises(ContractViolationError):
        correlator(w_state, all_z(3), ())
    with pytest.raises(ContractViolationError):
        correlator(w_state, all_z(3), (0,))
    with pytest.raises(ContractViolationError):
        correlator(w_state, all_z(3), (4,))


@st.composite
def random_states(draw, num_qubits=3):
    dim = 2**num_qubits
    values = draw(
        st.lists(
            st.tuples(
                st.floats(-1.0, 1.0, allow_nan=False),
                st.floats(-1.0, 1.0, allow_nan=False),
            ),
            min_size=dim,
            max_size=dim,
        )
    )
    amplitudes = np.array([complex(re, im) for re, im in values])
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-3:
        amplitudes = np.zeros(dim, dtype=complex)
        amplitudes[0] = 1.0
        norm = 1.0
    return StateVector(num_qubits, amplitudes / norm)


@st.composite
def random_contexts(draw, num_qubits=3):
    angles = draw(
        st.lists(
            st.floats(0.0, 2.0 * math.pi, allow_nan=False),
            min_size=num_qubits,
            max_size=num_qubits,
        )
    )
    return MeasurementContext(tuple(Observable.xz_plane(a) for a in angles))


@settings(max_examples=60, deadline=None)
@given(state=random_states(), context=random_contexts())
def test_probabilities_form_a_distribution(state, context):
    probabilities = [
        outcome_probability(state, context, o) for o in outcome_tuples(3)
    ]
    assert all(p >= -1e-12 for p in probabilities)
    assert sum(probabilities) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(state=random_states(), context=random_contexts())
def test_correlators_bounded_by_one(state, context):
    for subset in ((1,), (1, 2), (1, 2, 3)):
        assert abs(correlator(state, context, subset)) <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(state=random_states())
def test_reductions_are_valid_density_matrices(state):
    for traced in (1, 2, 3):
        reduced = partial_trace(state, traced)
        value = concurrence(reduced)
        assert -1e-12 <= value <= 1.0 + 1e-9
