"""Element-of-reality argument chains and the deterministic consistency check.

Frozen targets for the three-qubit chain, from the catalog amplitudes:

  w    p1 = 1     p2 = p3 = 1   p4 = 3/4   unexplained 1/4
  ghz  p1 = 3/4   p2 = p3 = 1   p4 = 1/4   unexplained 1/2

For w the all-z context is supported entirely on two-minus outcomes, so the
opening event is certain; in a z(i), x(j), x(k) context a -1 on the z qubit
leaves the pair (|+-> + |-+>)/sqrt 2, whose x outcomes always agree.  The
closing all-x probabilities are 3/4 and 1/4 by direct expansion.
"""
import math

import numpy as np
import pytest

import bell3q.argument
from bell3q import (
    ContractViolationError,
    MeasurementContext,
    Observable,
    StateVector,
    catalog,
    enumerate_strategies,
    event_probability,
    find_reality_counterexample,
    ghz,
    hardy,
    hardy_maximum,
    outcome_tuples,
    permute_qubits,
    run_hardy_argument,
    run_w_argument,
    singlet,
    strategy_value,
    w,
)

from bell3q.qcore import CONDITION_FLOOR
from conftest import (
    CYCLIC,
    basis_state,
    breaks_reality_chain,
    count_calls,
    loop_reality_counterexample,
)

GOLDEN_RATIO_PROBABILITY = (5.0 * math.sqrt(5.0) - 11.0) / 2.0


def test_w_chain_report():
    report = run_w_argument(w(), state_name="w")
    assert report.structure == "always-always-sometimes"
    assert report.p1 == pytest.approx(1.0, abs=1e-9)
    assert report.p2 == pytest.approx(1.0, abs=1e-9)
    assert report.p3 == pytest.approx(1.0, abs=1e-9)
    assert report.p4 == pytest.approx(0.75, abs=1e-9)
    assert report.checks_passed
    assert not report.vacuous
    assert report.unexplained_fraction == pytest.approx(0.25, abs=1e-9)
    assert len(report.conditionals) == 3
    for check in report.conditionals:
        assert check.probability == pytest.approx(1.0, abs=1e-9)
        assert check.premise_probability == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_ghz_chain_report():
    report = run_w_argument(ghz(), state_name="ghz")
    assert report.structure == "sometimes-always-fewer"
    assert report.p1 == pytest.approx(0.75, abs=1e-9)
    assert report.p2 == pytest.approx(1.0, abs=1e-9)
    assert report.p3 == pytest.approx(1.0, abs=1e-9)
    assert report.p4 == pytest.approx(0.25, abs=1e-9)
    assert report.checks_passed
    assert report.unexplained_fraction == pytest.approx(0.5, abs=1e-9)
    for check in report.conditionals:
        assert check.premise_probability == pytest.approx(0.5, abs=1e-9)


def test_chain_is_permutation_invariant():
    base = run_w_argument(w())
    for perm in ((2, 3, 1), (3, 2, 1)):
        permuted = run_w_argument(permute_qubits(w(), perm))
        assert permuted.p1 == pytest.approx(base.p1, abs=1e-12)
        assert permuted.p4 == pytest.approx(base.p4, abs=1e-12)
        assert permuted.unexplained_fraction == pytest.approx(
            base.unexplained_fraction, abs=1e-12
        )


def test_vacuous_chain_on_product_state():
    report = run_w_argument(basis_state(3, 0), state_name="plus_cubed")
    assert report.vacuous
    assert report.p1 == pytest.approx(0.0, abs=1e-12)
    assert report.p2 is None
    assert report.p3 is None
    assert not report.checks_passed
    assert report.unexplained_fraction == 0.0
    assert all(check.probability is None for check in report.conditionals)


def test_partial_vacuity_still_reports_none():
    # amplitude only on |--+>: z3 is never -1, so one premise is empty
    state = basis_state(3, 6)
    report = run_w_argument(state)
    assert report.vacuous
    assert report.p2 is None and report.p3 is None
    values = [check.probability for check in report.conditionals]
    assert values.count(None) == 1


def test_failed_checks_zero_the_unexplained_fraction():
    # a generic state passes the premises but not the always checks
    amplitudes = np.zeros(8)
    amplitudes[0] = amplitudes[3] = amplitudes[5] = 1.0 / math.sqrt(3.0)
    report = run_w_argument(StateVector(3, amplitudes))
    assert not report.checks_passed
    assert report.unexplained_fraction == 0.0


def test_w_argument_rejects_two_qubits():
    with pytest.raises(ContractViolationError):
        run_w_argument(singlet())


def test_reality_counterexample_absent():
    assert find_reality_counterexample() is None
    assert loop_reality_counterexample() is None


@pytest.mark.parametrize(
    "name, premises, hits",
    [("cabello_ch", CYCLIC, 0), ("cabello_ch_literal", CYCLIC[:2], 4)],
)
def test_positive_cabello_value_is_a_chain_counterexample(name, premises, hits):
    # with A = z and B = x a strategy scores above 0 exactly when it breaks
    # the chain built from the premises its mismatch terms encode; the
    # literal form drops the third, so there the exact maximum is the loop's
    # first hit
    expression = catalog(name)
    broken = []
    for strategy in enumerate_strategies(expression.scheme):
        breaks = breaks_reality_chain(strategy, ("A", "B"), premises)
        assert (strategy_value(expression, strategy) > 0) == breaks
        if breaks:
            broken.append(strategy)
    assert len(broken) == hits
    if broken:
        assert expression.bounds.maximizer == broken[0]


def test_reality_search_logic_on_modified_conclusion():
    # sanity check of the search itself: with only one -1 in z the premises
    # do not pin all three x values, so such strategies must be skipped, and
    # the survivor set is nonempty (the implication is not vacuous)
    from bell3q import SettingScheme, enumerate_strategies

    scheme = SettingScheme.uniform(3, ("z", "x"))
    constrained = 0
    for strategy in enumerate_strategies(scheme):
        z = [strategy.outcome(q, "z") for q in (1, 2, 3)]
        if sum(1 for v in z if v == -1) >= 2:
            constrained += 1
    assert constrained == 4 * 8  # half the z patterns, all 8 x patterns


def test_hardy_chain_at_the_optimum():
    optimum = hardy_maximum()
    state = hardy(optimum.state_angle)
    a1, b1, a2, b2 = (Observable.xz_plane(angle) for angle in optimum.angles)
    report = run_hardy_argument(state, a1, b1, a2, b2, state_name="hardy")
    assert report.structure == "sometimes-always-never"
    assert report.checks_passed
    assert report.p2 == pytest.approx(1.0, abs=1e-9)
    assert report.p3 == pytest.approx(1.0, abs=1e-9)
    assert report.p4 == pytest.approx(0.0, abs=1e-9)
    assert report.p1 == pytest.approx(GOLDEN_RATIO_PROBABILITY, abs=1e-6)
    assert report.unexplained_fraction == pytest.approx(report.p1, abs=1e-9)
    assert report.ch_middle == pytest.approx(report.p1 - report.p4, abs=1e-9)


def test_hardy_chain_off_the_constraint_manifold():
    report = run_hardy_argument(
        hardy(0.3),
        Observable.x(),
        Observable.z(),
        Observable.x(),
        Observable.z(),
    )
    assert not report.checks_passed
    assert report.unexplained_fraction == 0.0
    assert report.ch_middle is not None


def test_hardy_chain_vacuous_premise():
    # qubit 1 never shows +1 along z when the state is |-->
    state = StateVector(2, np.array([0.0, 0.0, 0.0, 1.0]))
    report = run_hardy_argument(
        state, Observable.z(), Observable.x(), Observable.z(), Observable.x()
    )
    assert report.vacuous
    assert report.p2 is None and report.p3 is None


def test_hardy_argument_rejects_three_qubits():
    with pytest.raises(ContractViolationError):
        run_hardy_argument(
            w(), Observable.z(), Observable.x(), Observable.z(), Observable.x()
        )


def test_singlet_chain_middle_matches_ch_optimum_value():
    # closed-form optimum: singlet correlations E(a, b) = -cos(a - b), so
    # settings (0, pi/2, -3pi/4, 3pi/4) realize the (sqrt 2 - 1) / 2 maximum
    # of the four-probability middle term
    report = run_hardy_argument(
        singlet(),
        Observable.xz_plane(0.0),
        Observable.xz_plane(math.pi / 2.0),
        Observable.xz_plane(-3.0 * math.pi / 4.0),
        Observable.xz_plane(3.0 * math.pi / 4.0),
    )
    assert report.ch_middle == pytest.approx(
        (math.sqrt(2.0) - 1.0) / 2.0, abs=1e-9
    )


def _oracle_conditional(state, context, premise, joint):
    premise_probability = event_probability(state, context, premise)
    if premise_probability <= CONDITION_FLOOR:
        return premise_probability, None
    return premise_probability, event_probability(state, context, joint) / premise_probability


def _w_chain_oracle(state):
    """p1, the conditionals and p4 of the three-qubit chain, one
    ``MeasurementContext`` and one contraction per probability."""
    z, x = Observable.z(), Observable.x()
    tuples = outcome_tuples(3)
    p1 = event_probability(
        state, MeasurementContext((z, z, z)), [o for o in tuples if sum(v == -1 for v in o) >= 2]
    )
    conditionals = []
    for i, j, k in CYCLIC:
        context = MeasurementContext(tuple(z if q == i else x for q in (1, 2, 3)))
        premise = [o for o in tuples if o[i - 1] == -1]
        joint = [o for o in premise if o[j - 1] == o[k - 1]]
        conditionals.append(_oracle_conditional(state, context, premise, joint))
    p4 = event_probability(state, MeasurementContext((x, x, x)), [(1, 1, 1), (-1, -1, -1)])
    return p1, conditionals, p4


def _hardy_chain_oracle(state, a1, b1, a2, b2):
    """p1, the conditionals, p4 and ch_middle of the two-qubit chain, one
    ``MeasurementContext`` and one contraction per probability."""
    aa, ab = MeasurementContext((a1, a2)), MeasurementContext((a1, b2))
    ba, bb = MeasurementContext((b1, a2)), MeasurementContext((b1, b2))
    p1 = event_probability(state, aa, [(1, 1)])
    p4 = event_probability(state, bb, [(1, 1)])
    conditionals = [
        _oracle_conditional(state, ab, [(1, 1), (1, -1)], [(1, 1)]),
        _oracle_conditional(state, ba, [(1, 1), (-1, 1)], [(1, 1)]),
    ]
    middle = p1 - event_probability(state, ab, [(1, -1)]) - event_probability(state, ba, [(-1, 1)])
    return p1, conditionals, p4, middle - p4


def _random_state(rng, num_qubits):
    amplitudes = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amplitudes / np.linalg.norm(amplitudes))


def _random_observable(rng):
    direction = rng.normal(size=3)
    return Observable(tuple(direction / np.linalg.norm(direction)))


@pytest.fixture
def contractions(monkeypatch):
    return count_calls(monkeypatch, bell3q.argument, "correlation_table")


def _checks(report):
    return [(check.premise_probability, check.probability) for check in report.conditionals]


def test_w_chain_reads_one_table_equal_to_the_per_context_route(contractions):
    rng = np.random.default_rng(1003)
    states = [ghz(), w(), basis_state(3, 0), basis_state(3, 6)]
    states += [_random_state(rng, 3) for _ in range(40)]
    for state in states:
        del contractions[:]
        report = run_w_argument(state)
        assert len(contractions) == 1
        p1, conditionals, p4 = _w_chain_oracle(state)
        assert (report.p1, _checks(report), report.p4) == (p1, conditionals, p4)
        values = [probability for _, probability in conditionals]
        if None in values:
            assert report.p2 is None and report.p3 is None
        else:
            assert report.p2 == sum(values) / 3
            assert report.p3 == sum(values[1:] + values[:1]) / 3


def test_hardy_chain_reads_one_table_equal_to_the_per_context_route(contractions):
    rng = np.random.default_rng(1004)
    z, x = Observable.z(), Observable.x()
    readme = [Observable.xz_plane(a) for a in (4.0995, 5.9087, 5.3252, 3.5161)]
    cases = [
        (hardy(0.4347), readme),
        (singlet(), [z, x, z, x]),
        (StateVector(2, np.array([0.0, 0.0, 0.0, 1.0])), [z, x, z, x]),  # vacuous premise
    ]
    cases += [
        (_random_state(rng, 2), [_random_observable(rng) for _ in range(4)]) for _ in range(40)
    ]
    for state, observables in cases:
        del contractions[:]
        report = run_hardy_argument(state, *observables)
        assert len(contractions) == 1
        p1, conditionals, p4, ch_middle = _hardy_chain_oracle(state, *observables)
        assert (report.p1, _checks(report), report.p4) == (p1, conditionals, p4)
        assert report.ch_middle == ch_middle
        assert (report.p2, report.p3) == tuple(probability for _, probability in conditionals)


def test_chains_refuse_a_non_observable():
    with pytest.raises(ContractViolationError, match="not an observable: 'z'"):
        run_hardy_argument(singlet(), "z", Observable.x(), Observable.z(), Observable.x())
    with pytest.raises(ContractViolationError, match="not an observable"):
        run_hardy_argument(singlet(), Observable.z(), Observable.x(), Observable.z(), None)
