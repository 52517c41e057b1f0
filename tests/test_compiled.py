"""The compiled form against independent routes.

Quantum values from the Pauli correlation tensor and Walsh weights (one
correlation table per state and binding, shared by every expression) are
checked against the kron oracle in ``conftest``, and the vectorized exact
bounds against the pure-python ``strategy_value`` loop, bit for bit,
witnesses included.  The x-z plane objective is checked against
``quantum_value`` in ``test_optimize``.
"""
import math
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell3q.expressions
from bell3q import (
    BellExpression,
    Binding,
    ContractViolationError,
    CorrelatorTerm,
    Observable,
    PlaneObjective,
    ProbabilityTerm,
    SettingScheme,
    StateVector,
    Term,
    catalog,
    catalog_ids,
    classical_bounds,
    enumerate_strategies,
    evaluate_report,
    ghz,
    hardy,
    outcome_tuples,
    parse_expression_text,
    quantum_value,
    singlet,
    strategy_value,
    term_breakdown,
    w,
)
from bell3q.qcore import WalshForm, correlation_table

from conftest import (
    correlator,
    count_calls,
    event_probability,
    kron_correlator,
    kron_outcome_probability,
    kron_term_value,
    make_context,
    outcome_probability,
    zx_binding,
)



def _random_state(rng, num_qubits):
    amplitudes = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amplitudes / np.linalg.norm(amplitudes))


def _random_observable(rng):
    direction = rng.normal(size=3)
    return Observable(tuple(direction / np.linalg.norm(direction)))


def _states(num_qubits, rng):
    if num_qubits == 3:
        return {"ghz": ghz(), "w": w(), "random": _random_state(rng, 3)}
    return {"singlet": singlet(), "hardy": hardy(0.4347), "random": _random_state(rng, 2)}


def _bindings(scheme, rng):
    z, x, y = Observable.z(), Observable.x(), Observable.y()
    bindings = {
        f"{a}/{b}": Binding.uniform(scheme, {"A": first, "B": second})
        for (a, first), (b, second) in (
            (("z", z), ("x", x)),
            (("z", z), ("y", y)),
            (("x", x), ("y", y)),
        )
    }
    bindings["random"] = Binding({pair: _random_observable(rng) for pair in scheme.pairs()})
    return bindings


def _assert_matches_the_kron_oracle(expression, state, binding):
    """``term_breakdown``, ``quantum_value`` and ``evaluate_report`` against
    the kron route, term by term."""
    expected = [kron_term_value(state, binding, term) for term in expression.terms]
    total = sum(term.coefficient * value for term, value in zip(expression.terms, expected))
    report = evaluate_report(expression, state, binding)
    for breakdown in (term_breakdown(expression, state, binding), report.terms):
        assert [term for term, _ in breakdown] == list(expression.terms)
        assert [value for _, value in breakdown] == pytest.approx(expected, abs=1e-12)
    assert quantum_value(expression, state, binding) == pytest.approx(total, abs=1e-12)
    assert report.quantum_value == pytest.approx(total, abs=1e-12)


def test_term_values_match_the_kron_oracle():
    rng = np.random.default_rng(2001)
    cases = 0
    for name in catalog_ids():
        expression = catalog(name)
        for state in _states(expression.num_qubits, rng).values():
            for binding in _bindings(expression.scheme, rng).values():
                _assert_matches_the_kron_oracle(expression, state, binding)
                cases += 1
    assert cases == 8 * 3 * 4


_UNEVEN = """
0.5 CORR q1:A q2:A q3:A SUBSET=1,2,3
-1 CORR q1:C q2:A q3:B SUBSET=1,3
2 CORR q1:B q2:A q3:A SUBSET=2
-0.25 PROB q1:C q2:A q3:B ACCEPT=+-+,---
1 PROB q1:B q2:A q3:A ACCEPT=++-
0.75 PROB q1:A q2:A q3:B ACCEPT=+++,++-,-+-,--+,---
"""


def test_uneven_labels_and_overrides_match_the_kron_oracle():
    expression = parse_expression_text(_UNEVEN)
    assert expression.scheme.labels_per_qubit == (("A", "C", "B"), ("A",), ("A", "B"))
    rng = np.random.default_rng(2002)
    z, x, y = Observable.z(), Observable.x(), Observable.y()
    overrides = {(1, "C"): _random_observable(rng), (3, "B"): y, (3, "A"): x}
    bindings = [
        Binding.uniform(expression.scheme, {"A": z, "B": x, "C": y}, overrides),
        Binding({pair: _random_observable(rng) for pair in expression.scheme.pairs()}),
    ]
    for state in _states(3, rng).values():
        for binding in bindings:
            _assert_matches_the_kron_oracle(expression, state, binding)


def test_correlation_table_holds_every_label_choice():
    rng = np.random.default_rng(2003)
    state = _random_state(rng, 3)
    observables = [tuple(_random_observable(rng) for _ in range(k)) for k in (3, 1, 2)]
    table = correlation_table(state, observables)
    assert table.shape == (4, 2, 3)
    for index in product(range(4), range(2), range(3)):
        # index 0 is the identity: the z placeholder stays outside the subset
        chosen = [per_qubit[k - 1] if k else Observable.z() for per_qubit, k in zip(observables, index)]
        subset = {q for q, k in enumerate(index, start=1) if k}
        expected = kron_correlator(state, make_context(*chosen), subset) if subset else 1.0
        assert table[index] == pytest.approx(expected, abs=1e-12)


def test_correlation_table_refuses_a_non_observable():
    with pytest.raises(ContractViolationError, match="not an observable: 'x'"):
        correlation_table(singlet(), [(Observable.z(),), (Observable.z(), "x")])


def test_qcore_primitives_match_the_kron_oracle():
    rng = np.random.default_rng(7)
    for num_qubits in (2, 3):
        state = _random_state(rng, num_qubits)
        context = make_context(*(_random_observable(rng) for _ in range(num_qubits)))
        for outcomes in outcome_tuples(num_qubits):
            assert outcome_probability(state, context, outcomes) == pytest.approx(
                kron_outcome_probability(state, context, outcomes), abs=1e-12
            )
        for size in range(1, num_qubits + 1):
            for subset in product(range(1, num_qubits + 1), repeat=size):
                assert correlator(state, context, subset) == pytest.approx(
                    kron_correlator(state, context, set(subset)), abs=1e-12
                )
        accepted = outcome_tuples(num_qubits)[1::2]
        assert event_probability(state, context, accepted) == pytest.approx(
            sum(kron_outcome_probability(state, context, o) for o in accepted), abs=1e-12
        )


def test_walsh_form_reproduces_the_indicator_exactly():
    rng = np.random.default_rng(3)
    for num_qubits in (1, 2, 3, 4):
        tuples = list(product((1, -1), repeat=num_qubits))
        for _ in range(5):
            picks = rng.choice(len(tuples), size=rng.integers(1, len(tuples) + 1), replace=False)
            accepted = frozenset(tuples[int(i)] for i in picks)
            form = WalshForm.of_event(accepted, num_qubits)
            for s in tuples:
                total = sum(
                    weight * math.prod(s[q - 1] for q in subset) for subset, weight in form.weights
                )
                assert total == form.denominator * (s in accepted)
    expected = (((), 1), ((1,), 1), ((2,), -1), ((1, 2), -1))
    assert WalshForm.of_event({(1, -1)}, 2).weights == expected
    assert CorrelatorTerm(("A", "B", "A"), frozenset((3, 1))).walsh == WalshForm(1, (((1, 3), 1),))


def test_compiled_once_and_lazily():
    expression = parse_expression_text("1 CORR q1:A q2:A SUBSET=1,2\n-1 PROB q1:A q2:B ACCEPT=+-\n")
    state = singlet()
    assert all("walsh" not in vars(term.payload) for term in expression.terms)
    assert "pauli_tensor" not in vars(state)
    assert "compiled" not in vars(expression)
    binding = Binding.uniform(expression.scheme, {"A": Observable.z(), "B": Observable.x()})
    quantum_value(expression, state, binding)
    forms = [term.payload.walsh for term in expression.terms]
    tensor = state.pauli_tensor
    weights, denominators = compiled = expression.compiled
    # table entries (1 + 1) x (1 + 2): the constant, q2:A, q2:B, q1:A, ...
    assert weights.tolist() == [[0, 0, 0, 0, 1, 0], [1, 0, -1, 1, 0, -1]]
    assert denominators.tolist() == [1, 4]
    classical_bounds(expression)
    PlaneObjective(expression, state, "free")
    quantum_value(expression, state, binding)
    assert [term.payload.walsh for term in expression.terms] == forms
    assert all(a is b for a, b in zip(forms, (t.payload.walsh for t in expression.terms)))
    assert state.pauli_tensor is tensor
    assert expression.compiled is compiled
    assert not any(array.flags.writeable for array in (tensor, weights, denominators))


@pytest.fixture
def contractions(monkeypatch):
    return count_calls(monkeypatch, bell3q.expressions, "correlation_table")


def _three_qubit_catalog():
    return [catalog(name) for name in catalog_ids() if catalog(name).num_qubits == 3]


def test_one_table_per_state_binding_and_labels(contractions):
    three = _three_qubit_catalog()
    assert len(three) == 6
    state = _random_state(np.random.default_rng(2004), 3)
    binding = zx_binding(three[0].scheme)
    values = {}
    for expression in three:
        evaluate_report(expression, state, binding)
        values[expression.name] = term_breakdown(expression, state, binding)
    assert len(contractions) == 1
    # the memo is keyed by the binding object, the state and the labels
    twin = Binding(dict(binding.items()))
    assert term_breakdown(three[0], state, twin) == values[three[0].name]
    assert len(contractions) == 2
    term_breakdown(three[0], StateVector(3, state.amplitudes), twin)
    assert len(contractions) == 3
    only_a = parse_expression_text("1 CORR q1:A q2:A q3:A SUBSET=1,2,3\n")
    assert only_a.scheme.labels_per_qubit != three[0].scheme.labels_per_qubit
    term_breakdown(only_a, state, twin)
    assert len(contractions) == 4
    # one entry: the other labels replaced the table of the catalog's labels
    term_breakdown(three[0], state, twin)
    assert len(contractions) == 5


def test_interleaved_bindings_match_a_fresh_state():
    rng = np.random.default_rng(2005)
    amplitudes = _random_state(rng, 3).amplitudes
    state = StateVector(3, amplitudes)
    scheme = catalog("mermin").scheme
    first = zx_binding(scheme)
    second = Binding({pair: _random_observable(rng) for pair in scheme.pairs()})
    for binding in (first, second, first):
        for expression in _three_qubit_catalog():
            fresh = StateVector(3, amplitudes)
            assert term_breakdown(expression, state, binding) == term_breakdown(
                expression, fresh, binding
            )
            assert quantum_value(expression, state, binding) == quantum_value(
                expression, fresh, binding
            )


def test_the_kept_table_and_its_binding_are_read_only():
    expression, state = catalog("mermin"), w()
    binding = zx_binding(expression.scheme)
    term_breakdown(expression, state, binding)
    key = (binding, expression.scheme.labels_per_qubit)
    table = state.last_table(key, lambda: pytest.fail("the table was contracted again"))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 2.0
    with pytest.raises(TypeError):
        binding._assignments[(1, "A")] = Observable.y()


def test_import_compiles_nothing():
    probe = (
        "import bell3q, bell3q.expressions as e; "
        "print(sum('walsh' in vars(t.payload) for x in e._CATALOG.values() for t in x.terms)"
        " + sum('compiled' in vars(x) for x in e._CATALOG.values()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "0"


def _loop_bounds(expression):
    strategies = list(enumerate_strategies(expression.scheme))
    values = [strategy_value(expression, strategy) for strategy in strategies]
    lower, upper = min(values), max(values)
    return lower, upper, strategies[values.index(lower)], strategies[values.index(upper)]


def _assert_bounds_match_the_loop(expression):
    bounds = classical_bounds(expression)
    lower, upper, minimizer, maximizer = _loop_bounds(expression)
    assert (repr(bounds.lower), repr(bounds.upper)) == (repr(lower), repr(upper))
    assert bounds.minimizer.outcomes == minimizer.outcomes
    assert bounds.maximizer.outcomes == maximizer.outcomes


_COEFFICIENTS = st.one_of(
    st.sampled_from((1.0 / 3.0, 0.1, -0.7, 2.5, -1e-3, 0.0)),
    st.floats(-5.0, 5.0, allow_nan=False),
)


@st.composite
def mixed_expressions(draw, max_qubits=4):
    num_qubits = draw(st.integers(2, max_qubits))
    labels = tuple(
        tuple("ABC"[: draw(st.integers(1, min(3, 8 // num_qubits)))])
        for _ in range(num_qubits)
    )
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        chosen = tuple(draw(st.sampled_from(per_qubit)) for per_qubit in labels)
        if draw(st.booleans()):
            subset = draw(st.frozensets(st.integers(1, num_qubits), min_size=1))
            payload = CorrelatorTerm(chosen, subset)
        else:
            outcome = st.tuples(*[st.sampled_from((1, -1))] * num_qubits)
            payload = ProbabilityTerm(chosen, draw(st.frozensets(outcome, min_size=1)))
        terms.append(Term(draw(_COEFFICIENTS), payload))
    return BellExpression("generated", SettingScheme(labels), tuple(terms))


@settings(max_examples=40, deadline=None)
@given(expression=mixed_expressions())
def test_bounds_match_the_strategy_loop_bit_for_bit(expression):
    _assert_bounds_match_the_loop(expression)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_expressions_match_the_kron_oracle(data):
    expression = data.draw(mixed_expressions(max_qubits=3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = _random_state(rng, expression.num_qubits)
    binding = Binding({pair: _random_observable(rng) for pair in expression.scheme.pairs()})
    _assert_matches_the_kron_oracle(expression, state, binding)


def test_bounds_stay_exact_on_seven_qubits():
    # one accepted tuple on 7 qubits carries the constant weight 2^7 = 128
    # in its integer table, one past what int8 holds
    scheme = SettingScheme.uniform(7, ("A",))
    labels = ("A",) * 7
    all_but_one = frozenset(product((1, -1), repeat=7)) - {(1,) * 7}
    expression = BellExpression(
        "seven",
        scheme,
        (
            Term(0.3, ProbabilityTerm(labels, frozenset({(1, -1, 1, -1, 1, -1, 1)}))),
            Term(-1.0 / 3.0, ProbabilityTerm(labels, all_but_one)),
            Term(0.7, CorrelatorTerm(labels, frozenset((2, 5, 7)))),
        ),
    )
    _assert_bounds_match_the_loop(expression)
