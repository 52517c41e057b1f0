"""Exact local-hidden-variable bounds by exhaustive strategy enumeration.

A deterministic strategy assigns an outcome +-1 to every (qubit, setting
label) pair.  For a scheme with L labels in total there are 2**L strategies;
the classical range of a Bell expression is the exact minimum and maximum of
its value over all of them, and an extremal strategy is returned as a
witness.  Enumeration order is deterministic: pairs are ordered by qubit then
by the per-qubit label order, and assignments count up with -1 before +1.

``classical_bounds`` broadcasts each term's exact outcome table over all
strategies: its value on every outcome of the term's own labels, a 0/1
indicator for a probability and a +-1 product for a correlator
(``outcome_table`` of the term's payload).
``strategy_value`` is the pure-python evaluator that reads the terms
directly and serves as the independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import ContractViolationError, EnumerationSizeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from .expressions import BellExpression

MAX_TOTAL_LABELS = 24


@dataclass(frozen=True)
class SettingScheme:
    """Ordered setting labels available on each qubit."""

    labels_per_qubit: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(tuple(per_qubit) for per_qubit in self.labels_per_qubit)
        if not labels:
            raise ContractViolationError("scheme needs at least one qubit")
        for per_qubit in labels:
            if not per_qubit:
                raise ContractViolationError("every qubit needs at least one label")
            if len(set(per_qubit)) != len(per_qubit):
                raise ContractViolationError(f"duplicate labels on a qubit: {per_qubit}")
        object.__setattr__(self, "labels_per_qubit", labels)

    @classmethod
    def uniform(cls, num_qubits: int, labels: tuple[str, ...] = ("A", "B")) -> "SettingScheme":
        return cls(tuple(tuple(labels) for _ in range(num_qubits)))

    @property
    def num_qubits(self) -> int:
        return len(self.labels_per_qubit)

    @property
    def total_labels(self) -> int:
        return sum(len(per_qubit) for per_qubit in self.labels_per_qubit)

    def pairs(self) -> tuple[tuple[int, str], ...]:
        """All (qubit, label) pairs in enumeration order, qubits 1-based."""
        return tuple(
            (qubit, label)
            for qubit, per_qubit in enumerate(self.labels_per_qubit, start=1)
            for label in per_qubit
        )

    def labels_for(self, qubit: int) -> tuple[str, ...]:
        if not 1 <= qubit <= self.num_qubits:
            raise ContractViolationError(f"qubit index {qubit} out of range")
        return self.labels_per_qubit[qubit - 1]


@dataclass(frozen=True)
class DeterministicStrategy:
    """One outcome per (qubit, label) pair, aligned with ``scheme.pairs()``."""

    scheme: SettingScheme
    outcomes: tuple[int, ...]

    def __post_init__(self) -> None:
        outcomes = tuple(self.outcomes)
        pairs = self.scheme.pairs()
        if len(outcomes) != len(pairs):
            raise ContractViolationError(
                f"expected {len(pairs)} outcomes, got {len(outcomes)}"
            )
        for value in outcomes:
            if value not in (1, -1):
                raise ContractViolationError(f"outcome must be +1 or -1, got {value!r}")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(
            self, "_index", {pair: i for i, pair in enumerate(pairs)}
        )

    def outcome(self, qubit: int, label: str) -> int:
        try:
            return self.outcomes[self._index[(qubit, label)]]  # type: ignore[attr-defined]
        except KeyError as exc:
            raise ContractViolationError(
                f"strategy has no assignment for qubit {qubit} label {label!r}"
            ) from exc

    def as_dict(self) -> dict[str, int]:
        return {
            f"q{qubit}:{label}": self.outcome(qubit, label)
            for qubit, label in self.scheme.pairs()
        }


def _check_size(scheme: SettingScheme) -> int:
    total = scheme.total_labels
    if total > MAX_TOTAL_LABELS:
        raise EnumerationSizeError(
            f"{total} labels would need {2 ** total} strategies "
            f"(limit {MAX_TOTAL_LABELS} labels)"
        )
    return total


def _strategy_from_index(scheme: SettingScheme, index: int, total: int) -> DeterministicStrategy:
    outcomes = tuple(
        1 if (index >> (total - 1 - position)) & 1 else -1 for position in range(total)
    )
    return DeterministicStrategy(scheme, outcomes)


def enumerate_strategies(scheme: SettingScheme) -> Iterator[DeterministicStrategy]:
    """Yield all 2**L strategies in deterministic lexicographic order."""
    total = _check_size(scheme)
    for index in range(2**total):
        yield _strategy_from_index(scheme, index, total)


def strategy_value(expression: "BellExpression", strategy: DeterministicStrategy) -> float:
    """Value a deterministic strategy assigns to a Bell expression.

    Probability terms become 0/1 indicators of the accepted outcome tuples,
    correlator terms become products of assigned outcomes over their subset.
    """
    from .expressions import CorrelatorTerm, ProbabilityTerm

    total = 0.0
    for term in expression.terms:
        payload = term.payload
        if isinstance(payload, CorrelatorTerm):
            value = 1
            for qubit in sorted(payload.subset):
                value *= strategy.outcome(qubit, payload.labels[qubit - 1])
            total += term.coefficient * value
        elif isinstance(payload, ProbabilityTerm):
            observed = tuple(
                strategy.outcome(qubit, payload.labels[qubit - 1])
                for qubit in range(1, expression.scheme.num_qubits + 1)
            )
            if observed in payload.accepted:
                total += term.coefficient
        else:  # pragma: no cover - payloads are fixed by construction
            raise ContractViolationError(f"unknown term payload {payload!r}")
    return total


@dataclass(frozen=True)
class ClassicalBounds:
    """Exact classical range of an expression plus extremal witnesses."""

    lower: float
    upper: float
    minimizer: DeterministicStrategy
    maximizer: DeterministicStrategy
    strategy_count: int


def classical_bounds(expression: "BellExpression") -> ClassicalBounds:
    """Exact min and max over all deterministic strategies, vectorized.

    The scheme is the expression's own.  Raises EnumerationSizeError when the
    scheme has more than 24 labels in total.
    """
    scheme = expression.scheme
    total = _check_size(scheme)
    # Strategies form a (2,) * L array, one axis per pair in scheme order
    # holding -1 then +1, so the flat index is the enumeration index.  A
    # term's exact values span the axes of its own labels, which increase
    # with the qubit, so a reshape places them and they broadcast in.
    axis = {pair: p for p, pair in enumerate(scheme.pairs())}
    values = np.zeros((2,) * total)
    for term in expression.terms:
        shape = [1] * total
        for pair in enumerate(term.payload.labels, start=1):
            shape[axis[pair]] = 2
        values += term.coefficient * term.payload.outcome_table().reshape(shape)
    values = values.reshape(-1)

    argmin = int(np.argmin(values))
    argmax = int(np.argmax(values))
    return ClassicalBounds(
        lower=float(values[argmin]),
        upper=float(values[argmax]),
        minimizer=_strategy_from_index(scheme, argmin, total),
        maximizer=_strategy_from_index(scheme, argmax, total),
        strategy_count=values.size,
    )
