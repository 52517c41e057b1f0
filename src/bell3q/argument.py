"""Logical nonlocality arguments built from elements of reality.

Three-qubit chain (``run_w_argument``): in the all-z context some fraction
p1 of runs gives at least two -1 results; whenever one qubit's z result is
-1 the x results of the other two agree with certainty (p2, p3); so local
elements of reality force all three x results to be equal in every run that
would have produced two z values of -1.  Quantum mechanics instead gives
x1 = x2 = x3 with probability p4 < p1, leaving a fraction p1 - p4 of runs
with no local explanation.

Two-qubit chain (``run_hardy_argument``): sometimes a1 = a2 = +1 (p1);
always a1 = +1 implies b2 = +1 and a2 = +1 implies b1 = +1 (p2, p3); never
b1 = b2 = +1 (p4).  The same four probabilities assemble into the ch catalog
expression's middle term.

Each chain contracts the state once, into the ``correlation_table`` of all
its observables, and reads each probability from its context's sub-table.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .expressions import catalog
from .qcore import (
    CONDITION_FLOOR,
    Observable,
    StateVector,
    WalshForm,
    correlation_table,
    ordered_sum,
    outcome_tuples,
)

W_STRUCTURE = "always-always-sometimes"
GHZ_STRUCTURE = "sometimes-always-fewer"
HARDY_STRUCTURE = "sometimes-always-never"

_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


@dataclass(frozen=True)
class ConditionalCheck:
    """One conditional of an argument chain, vacuous when the premise has
    probability below 1e-12."""

    description: str
    premise_probability: float
    probability: float | None

    @property
    def vacuous(self) -> bool:
        return self.probability is None

    def as_dict(self) -> dict:
        return {
            "description": self.description,
            "premise_probability": self.premise_probability,
            "probability": self.probability,
            "vacuous": self.vacuous,
        }


@dataclass(frozen=True)
class ArgumentReport:
    """The four probabilities of an argument chain and their verdict."""

    state_name: str
    structure: str
    p1: float
    p2: float | None
    p3: float | None
    p4: float
    conditionals: tuple[ConditionalCheck, ...]
    checks_passed: bool
    vacuous: bool
    unexplained_fraction: float
    ch_middle: float | None = field(default=None)

    def as_dict(self) -> dict:
        return {
            "state": self.state_name,
            "structure": self.structure,
            "p1": self.p1,
            "p2": self.p2,
            "p3": self.p3,
            "p4": self.p4,
            "conditionals": [check.as_dict() for check in self.conditionals],
            "checks_passed": self.checks_passed,
            "vacuous": self.vacuous,
            "unexplained_fraction": self.unexplained_fraction,
            "ch_middle": self.ch_middle,
        }


def _report(
    state_name: str,
    structure: str,
    p1: float,
    p2: float | None,
    p3: float | None,
    p4: float,
    conditionals: tuple[ConditionalCheck, ...],
    atol: float,
    ch_middle: float | None = None,
) -> ArgumentReport:
    """The chain's verdict: the checks pass when no conditional is vacuous
    and p2 and p3 equal 1 within ``atol``; only then is p1 - p4 unexplained."""
    vacuous = any(check.vacuous for check in conditionals)
    checks_passed = not vacuous and abs(p2 - 1.0) <= atol and abs(p3 - 1.0) <= atol
    return ArgumentReport(
        state_name, structure, p1, p2, p3, p4, conditionals, checks_passed, vacuous,
        unexplained_fraction=p1 - p4 if checks_passed else 0.0,
        ch_middle=ch_middle,
    )


def _probability(table: np.ndarray, context: tuple[int, ...], accepted: list) -> float:
    """P(accepted) in one context, read from its ``(2,) * n`` sub-table: index
    0 (the identity) and ``context[q - 1]`` (the observable) on each axis q."""
    sub_table = table[np.ix_(*((0, k) for k in context))]
    return WalshForm.of_event(accepted, table.ndim).value(sub_table)


def _conditional(
    description: str, table: np.ndarray, context: tuple[int, ...], premise: list, joint: list
) -> ConditionalCheck:
    """P(joint | premise) in one context; vacuous when the premise has
    probability at most CONDITION_FLOOR."""
    premise_probability = _probability(table, context, premise)
    probability = None
    if premise_probability > CONDITION_FLOOR:
        probability = _probability(table, context, joint) / premise_probability
    return ConditionalCheck(description, premise_probability, probability)


def run_w_argument(
    state: StateVector, state_name: str = "custom", atol: float = 1e-9
) -> ArgumentReport:
    """Evaluate the three-qubit chain on any three-qubit state.

    p1 is the probability of at least two -1 results in the all-z context;
    p2 and p3 average the three cyclic conditionals P(x_j = x_k | z_i = -1)
    and P(x_i = x_k | z_j = -1), which range over the same three distinct
    conditionals in different order, and every one of them is reported; p4 is
    the probability that all three x results agree.  The checks pass when
    every conditional equals 1 within ``atol``; the unexplained fraction is
    then p1 - p4.
    """
    if state.num_qubits != 3:
        raise ContractViolationError("the three-qubit argument needs a three-qubit state")
    table = correlation_table(state, [(Observable.z(), Observable.x())] * 3)
    z, x = 1, 2  # their indices on every axis of the table
    tuples = outcome_tuples(3)

    p1 = _probability(table, (z, z, z), [o for o in tuples if sum(1 for v in o if v == -1) >= 2])

    conditionals: list[ConditionalCheck] = []
    for i, j, k in _CYCLIC:
        context = tuple(z if q == i else x for q in (1, 2, 3))
        premise = [o for o in tuples if o[i - 1] == -1]
        joint = [o for o in premise if o[j - 1] == o[k - 1]]
        description = f"P(x{j} = x{k} | z{i} = -1)"
        conditionals.append(_conditional(description, table, context, premise, joint))

    p4 = _probability(table, (x, x, x), [(1, 1, 1), (-1, -1, -1)])

    values = [check.probability for check in conditionals]
    p2 = p3 = None
    if None not in values:
        # Both conditional families traverse the same three conditionals,
        # one indexed by the conditioning qubit i, the other by j.
        p2, p3 = ordered_sum(values) / 3, ordered_sum(values[1:] + values[:1]) / 3
    structure = W_STRUCTURE if abs(p1 - 1.0) <= atol else GHZ_STRUCTURE
    return _report(state_name, structure, p1, p2, p3, p4, tuple(conditionals), atol)


def run_hardy_argument(
    state: StateVector,
    a1: Observable,
    b1: Observable,
    a2: Observable,
    b2: Observable,
    state_name: str = "custom",
    atol: float = 1e-9,
) -> ArgumentReport:
    """Evaluate the sometimes-always-never chain on a two-qubit state.

    Observables a1, b1 act on qubit 1 and a2, b2 on qubit 2.  The report's
    ch_middle field carries the middle term of the ch catalog expression
    evaluated at the same four observables.
    """
    if state.num_qubits != 2:
        raise ContractViolationError("the Hardy argument needs a two-qubit state")

    table = correlation_table(state, [(a1, b1), (a2, b2)])
    aa, ab, ba, bb = (1, 1), (1, 2), (2, 1), (2, 2)  # a_q at index 1, b_q at 2

    p1 = _probability(table, aa, [(1, 1)])
    p4 = _probability(table, bb, [(1, 1)])

    conditionals = (
        _conditional("P(b2 = +1 | a1 = +1)", table, ab, [(1, 1), (1, -1)], [(1, 1)]),
        _conditional("P(b1 = +1 | a2 = +1)", table, ba, [(1, 1), (-1, 1)], [(1, 1)]),
    )
    p2, p3 = (check.probability for check in conditionals)

    ch_middle = p1 - _probability(table, ab, [(1, -1)]) - _probability(table, ba, [(-1, 1)]) - p4

    return _report(
        state_name, HARDY_STRUCTURE, p1, p2, p3, p4, conditionals, atol, ch_middle
    )


def find_reality_counterexample():
    """Search all 64 deterministic z/x strategies for one that satisfies the
    three-qubit chain's premises yet breaks its conclusion.

    A strategy is constrained by the chain when its z assignment has at
    least two -1 values and, for every qubit i with z_i = -1, the other two
    x values agree.  The chain concludes x1 = x2 = x3.  With A = z and
    B = x, a strategy scores above 0 on cabello_ch exactly when it breaks the
    chain that way, so the search is cabello_ch's exact classical maximum.
    Returns its first maximizing strategy (labels A and B) when that maximum
    is positive, or None when the implication holds for all 64.
    """
    bounds = catalog("cabello_ch").bounds
    return bounds.maximizer if bounds.upper > 0 else None
