"""Cross-route identities: exact answers that tie independent routes together.

Identity 1, free mode on an x-z product state.  On a product of real qubit
states every (qubit, label) expectation ranges over all of [-1, 1] as its x-z
angle turns, independently of the others, and an expression is multilinear
in those expectations (a term holds one label per qubit).  So its maximum is
at a +-1 vertex, a deterministic strategy: free ``maximize`` must reach
``classical_bounds(expression).upper``.  Symmetric mode is not covered, since
a label shared by several qubits is not multilinear in its expectation.

Identity 2, every deterministic strategy is a quantum value.  Binding a
(qubit, label) to ``xz_plane(pi/2)`` (z) for outcome +1 and to
``xz_plane(3 pi/2)`` (-z) for -1 makes ``quantum_value`` on |0...0> equal
``strategy_value``; the two routes share no code.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell3q import (
    Binding,
    Observable,
    StateVector,
    catalog,
    catalog_ids,
    classical_bounds,
    enumerate_strategies,
    maximize,
    parse_expression_text,
    quantum_value,
    strategy_value,
)

TOLERANCE = 1e-9
COEFFICIENTS = (1.0, -1.0, 2.0, -2.0, 0.1, -0.7, 1.0 / 3.0, 1.3)


def _xz_product_state(angles):
    """The product of the real qubit states cos(a)|0> + sin(a)|1>."""
    amplitudes = np.array([1.0])
    for angle in angles:
        amplitudes = np.kron(amplitudes, [math.cos(angle), math.sin(angle)])
    return StateVector(len(angles), amplitudes)


def _free_maximum(expression, state):
    step = 0.5 if expression.num_qubits == 3 else None
    return maximize(expression, state, "free", grid_step=step).value


@pytest.mark.parametrize("name", catalog_ids())
def test_free_mode_reaches_the_classical_bound_on_product_states(name):
    expression = catalog(name)
    rng = np.random.default_rng(11)
    upper = classical_bounds(expression).upper
    num_qubits = expression.num_qubits
    for angles in ([0.0] * num_qubits, rng.uniform(0.0, 2.0 * math.pi, num_qubits)):
        value = _free_maximum(expression, _xz_product_state(angles))
        assert value == pytest.approx(upper, abs=TOLERANCE), list(angles)


@st.composite
def _expressions_on_product_states(draw):
    """A 2- or 3-qubit expression of 1 to 4 CORR and PROB terms, labels A and
    B, non-dyadic coefficients among them, and x-z product state angles."""
    num_qubits = draw(st.sampled_from((2, 3)))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        labels = " ".join(f"q{q}:{draw(st.sampled_from('AB'))}" for q in range(1, num_qubits + 1))
        coefficient = draw(st.sampled_from(COEFFICIENTS))
        if draw(st.booleans()):
            subset = sorted(draw(st.sets(st.integers(1, num_qubits), min_size=1)))
            lines.append(f"{coefficient!r} CORR {labels} SUBSET={','.join(map(str, subset))}")
        else:
            outcome = st.text("+-", min_size=num_qubits, max_size=num_qubits)
            accepted = draw(st.lists(outcome, min_size=1, max_size=3))
            lines.append(f"{coefficient!r} PROB {labels} ACCEPT={','.join(accepted)}")
    angle = st.floats(0.0, 2.0 * math.pi)
    angles = draw(st.lists(angle, min_size=num_qubits, max_size=num_qubits))
    return parse_expression_text("\n".join(lines) + "\n"), angles


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_expressions_on_product_states())
def test_free_mode_reaches_the_classical_bound_on_generated_expressions(case):
    expression, angles = case
    value = _free_maximum(expression, _xz_product_state(angles))
    assert value == pytest.approx(classical_bounds(expression).upper, abs=TOLERANCE)


def test_every_catalog_strategy_is_a_quantum_value():
    angle = {1: math.pi / 2.0, -1: 3.0 * math.pi / 2.0}
    count = 0
    for name in catalog_ids():
        expression = catalog(name)
        zero = StateVector(expression.num_qubits, np.eye(2**expression.num_qubits)[0])
        for strategy in enumerate_strategies(expression.scheme):
            binding = Binding({
                pair: Observable.xz_plane(angle[strategy.outcome(*pair)])
                for pair in expression.scheme.pairs()
            })
            assert quantum_value(expression, zero, binding) == strategy_value(expression, strategy)
            count += 1
    assert count == 416
