"""Bell expressions: linear combinations of probabilities and correlators.

Each expression carries its own setting scheme.  Catalog entries use labels
``A`` and ``B`` on every qubit; the values quoted in their docstrings arise
from binding ``A`` to the z observable and ``B`` to the x observable unless
stated otherwise.

Quantum values come from one ``correlation_table`` per state, binding and
label set, holding the correlator of every choice of identity or one bound
label per qubit, which the state keeps for the next expression under that
``Binding`` object.  ``BellExpression.compiled`` lays each term's Walsh
weights out on that table, so every term is one row of one matrix product.

Catalog ids
-----------
``cabello_ch``
    Five-term symmetrized probability inequality for three qubits,
    classical range [-1, 0]:
    ``P(at least two A results are -1) - sum_i P(A_i = -1 and B_j != B_k)
    - P(B_1 = B_2 = B_3)`` with (i, j, k) running over cyclic assignments.
    W reaches 0.25 and GHZ reaches 0.5 at A = z, B = x.
``cabello_ch_literal``
    Four-term reading that keeps the symmetric first event but only the
    first two cyclic mismatch terms (i = 1 and i = 2).  A deterministic assignment
    (A = (-1, +1, -1), B_2 = B_3 != B_1) reaches +1, so the four-term reading
    is not a valid locality bound; the symmetrized five-term form is the
    canonical one.  Kept for documentation.
``cabello_ch_fixed``
    Four-term reading with the fixed-pair first event ``P(A_1 = -1, A_2 = -1)``.
    This one is a valid [-1, 0] inequality but W only reaches -5/12 with
    A = z, B = x, so it does not capture the intended argument.  Kept for
    documentation.
``mermin``
    ``<A1 A2 A3> - <A1 B2 B3> - <B1 A2 B3> - <B1 B2 A3>``, classical range
    [-2, 2].  GHZ reaches 4 and W reaches 3 at A = z, B = x; the best
    symmetric x-z setting for W reaches about 3.046.
``eq13``
    Mermin combination minus the three pairwise ``<A_i A_j>`` terms,
    classical range [-5, 3].  Both GHZ and W reach 4 at A = z, B = x.
``eq14``
    Mermin combination minus twice the three pairwise terms, classical range
    [-8, 4].  W reaches 5 at A = z, B = x while GHZ cannot exceed 4.
``chsh``
    ``<A1 A2> + <A1 B2> + <B1 A2> - <B1 B2>`` for two qubits, classical range
    [-2, 2], quantum maximum 2 sqrt 2.
``ch``
    Two-qubit probability form ``P(A1+, A2+) - P(A1+, B2-) - P(B1-, A2+)
    - P(B1+, B2+)``, classical range [-1, 0], quantum maximum
    (sqrt 2 - 1) / 2 for the singlet.  The four probabilities are exactly the
    ones compared in a sometimes-always-never chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, ContractViolationError, ExpressionFormatError
from .lhv import ClassicalBounds, DeterministicStrategy, SettingScheme, classical_bounds
from .qcore import Observable, StateVector, WalshForm, correlation_table, ordered_sum

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CorrelatorTerm:
    """Product expectation over a subset of qubits, one label per qubit."""

    labels: tuple[str, ...]
    subset: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "subset", frozenset(int(q) for q in self.subset))
        if not self.subset:
            raise ContractViolationError("correlator subset must be non-empty")
        for qubit in self.subset:
            if not 1 <= qubit <= len(self.labels):
                raise ContractViolationError(f"qubit index {qubit} out of range")

    @cached_property
    def walsh(self) -> WalshForm:
        """The compiled form, built on first use: one subset with weight 1."""
        return WalshForm(1, ((tuple(sorted(self.subset)), 1),))

    def outcome_table(self) -> np.ndarray:
        """The subset's outcome product, shape ``(2,) * n``, -1 first."""
        factors = [(-1, 1) if q in self.subset else (1, 1) for q in range(1, len(self.labels) + 1)]
        return reduce(np.multiply.outer, map(np.array, factors))


@dataclass(frozen=True)
class ProbabilityTerm:
    """Probability of a set of accepted outcome tuples, one label per qubit."""

    labels: tuple[str, ...]
    accepted: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        accepted = frozenset(tuple(int(v) for v in tup) for tup in self.accepted)
        if not accepted:
            raise ContractViolationError("accepted outcome set must be non-empty")
        for tup in accepted:
            if len(tup) != len(self.labels):
                raise ContractViolationError(
                    f"outcome tuple {tup} does not match {len(self.labels)} qubits"
                )
            if any(v not in (1, -1) for v in tup):
                raise ContractViolationError(f"outcomes must be +1 or -1: {tup}")
        object.__setattr__(self, "accepted", accepted)

    @cached_property
    def walsh(self) -> WalshForm:
        """The compiled form, built on first use: the indicator of the
        accepted tuples."""
        return WalshForm.of_event(self.accepted, len(self.labels))

    def outcome_table(self) -> np.ndarray:
        """The indicator of the accepted tuples, shape ``(2,) * n``, -1 first."""
        table = np.zeros((2,) * len(self.labels), dtype=int)
        table[tuple((np.array(tuple(self.accepted)).T + 1) // 2)] = 1
        return table


@dataclass(frozen=True)
class Term:
    coefficient: float
    payload: CorrelatorTerm | ProbabilityTerm


@dataclass(frozen=True)
class BellExpression:
    """Named linear combination of terms over a setting scheme."""

    name: str
    scheme: SettingScheme
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ContractViolationError("expression needs at least one term")
        n = self.scheme.num_qubits
        for term in self.terms:
            labels = term.payload.labels
            if len(labels) != n:
                raise ContractViolationError(
                    f"term labels {labels} do not match {n} qubits"
                )
            for qubit, label in enumerate(labels, start=1):
                if label not in self.scheme.labels_for(qubit):
                    raise ContractViolationError(
                        f"label {label!r} not available on qubit {qubit}"
                    )

    @property
    def num_qubits(self) -> int:
        return self.scheme.num_qubits

    @cached_property
    def bounds(self) -> ClassicalBounds:
        """The exact classical range, enumerated on first use."""
        return classical_bounds(self)

    @cached_property
    def compiled(self) -> tuple[np.ndarray, np.ndarray]:
        """Every term's Walsh weights on the flattened ``correlation_table``
        of all the scheme's labels (terms x table entries, integer valued),
        and each term's denominator; built on first use."""
        scheme_labels = self.scheme.labels_per_qubit
        shape = tuple(1 + len(labels) for labels in scheme_labels)
        weights = np.zeros((len(self.terms), int(np.prod(shape))))
        for row, term in zip(weights, self.terms):
            labels = term.payload.labels
            for subset, weight in term.payload.walsh.weights:
                index = tuple(
                    1 + scheme_labels[q - 1].index(labels[q - 1]) if q in subset else 0
                    for q in range(1, len(shape) + 1)
                )
                row[np.ravel_multi_index(index, shape)] = weight
        denominators = np.array([float(term.payload.walsh.denominator) for term in self.terms])
        weights.setflags(write=False)
        denominators.setflags(write=False)
        return weights, denominators

    @cached_property
    def plane_plans(self) -> dict:
        """The optimizer's state-independent ``PlanePlan`` per x-z plane
        mode, each built by ``optimize`` on its first use."""
        return {}


class Binding:
    """Assignment of one observable to every (qubit, label) pair, immutable."""

    def __init__(self, assignments: Mapping[tuple[int, str], Observable]):
        self._assignments = MappingProxyType(dict(assignments))
        for (qubit, label), observable in self._assignments.items():
            if not isinstance(observable, Observable):
                raise ContractViolationError(
                    f"binding for qubit {qubit} label {label!r} is not an observable"
                )

    @classmethod
    def uniform(
        cls,
        scheme: SettingScheme,
        by_label: Mapping[str, Observable],
        overrides: Mapping[tuple[int, str], Observable] | None = None,
    ) -> "Binding":
        """Bind the same observable to a label on every qubit, except where
        ``overrides`` binds that (qubit, label) pair itself.  A label or
        override that names no (qubit, label) pair of the scheme is refused."""
        overrides = overrides or {}
        pairs = scheme.pairs()
        labels = {label for _, label in pairs}
        unmatched = [label for label in by_label if label not in labels]
        unmatched += [f"q{qubit}:{label}" for qubit, label in overrides if (qubit, label) not in pairs]
        if unmatched:
            raise ConfigError(
                f"binding entries match no qubit and label of the expression: {', '.join(unmatched)}"
            )
        assignments: dict[tuple[int, str], Observable] = {}
        for qubit, label in pairs:
            observable = overrides.get((qubit, label), by_label.get(label))
            if observable is None:
                raise ConfigError(f"no observable bound for qubit {qubit} label {label!r}")
            assignments[(qubit, label)] = observable
        return cls(assignments)

    def observable(self, qubit: int, label: str) -> Observable:
        try:
            return self._assignments[(qubit, label)]
        except KeyError as exc:
            raise ContractViolationError(
                f"no observable bound for qubit {qubit} label {label!r}"
            ) from exc

    def items(self) -> tuple[tuple[tuple[int, str], Observable], ...]:
        return tuple(sorted(self._assignments.items()))

    def as_dict(self) -> dict[str, tuple[float, float, float]]:
        return {
            f"q{qubit}:{label}": observable.direction
            for (qubit, label), observable in self.items()
        }


def term_breakdown(
    expression: BellExpression, state: StateVector, binding: Binding
) -> tuple[tuple[Term, float], ...]:
    """Per-term quantum values (without coefficients), in expression order:
    the state's ``correlation_table`` with every label's observable, kept
    for the last binding and label set, read by the compiled weights."""
    if state.num_qubits != expression.num_qubits:
        raise ContractViolationError(
            f"{expression.num_qubits}-qubit expression applied to a "
            f"{state.num_qubits}-qubit state"
        )
    scheme_labels = expression.scheme.labels_per_qubit

    def table() -> np.ndarray:
        observables = [
            tuple(binding.observable(qubit, label) for label in labels)
            for qubit, labels in enumerate(scheme_labels, start=1)
        ]
        return correlation_table(state, observables).reshape(-1)

    weights, denominators = expression.compiled
    values = weights @ state.last_table((binding, scheme_labels), table) / denominators
    return tuple(zip(expression.terms, values.tolist()))


def _combine(breakdown: tuple[tuple[Term, float], ...]) -> float:
    return ordered_sum(term.coefficient * value for term, value in breakdown)


def quantum_value(
    expression: BellExpression, state: StateVector, binding: Binding
) -> float:
    """Quantum value of the expression on a state under a binding."""
    return _combine(term_breakdown(expression, state, binding))


@dataclass(frozen=True)
class ViolationReport:
    """Quantum value of an expression next to its exact classical range."""

    expression_name: str
    quantum_value: float
    classical_lower: float
    classical_upper: float
    violated: bool
    margin: float
    binding: Binding
    witness: DeterministicStrategy | None
    terms: tuple[tuple[Term, float], ...] = ()

    def as_dict(self) -> dict:
        return {
            "expression": self.expression_name,
            "quantum_value": self.quantum_value,
            "classical_lower": self.classical_lower,
            "classical_upper": self.classical_upper,
            "violated": self.violated,
            "margin": self.margin,
            "binding": self.binding.as_dict(),
            "witness": None if self.witness is None else self.witness.as_dict(),
        }


def evaluate_report(
    expression: BellExpression,
    state: StateVector,
    binding: Binding,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ViolationReport:
    """Evaluate quantum value and classical bounds and compare them.

    The margin is the distance of the quantum value outside the classical
    range, snapped to 0 when it does not exceed ``tolerance``; the report is
    violated exactly when the margin is positive.  When no violation occurs a
    maximizing deterministic strategy is attached as an explicit classical
    witness.  The per-term values that make up the quantum value are kept in
    ``terms``.
    """
    breakdown = term_breakdown(expression, state, binding)
    value = _combine(breakdown)
    bounds = expression.bounds
    raw_margin = max(0.0, value - bounds.upper, bounds.lower - value)
    margin = 0.0 if raw_margin <= tolerance else raw_margin
    violated = margin > 0.0
    return ViolationReport(
        expression_name=expression.name,
        quantum_value=value,
        classical_lower=bounds.lower,
        classical_upper=bounds.upper,
        violated=violated,
        margin=margin,
        binding=binding,
        witness=None if violated else bounds.maximizer,
        terms=breakdown,
    )


def _prob(coefficient: float, labels: str, accepted: Iterable[tuple[int, ...]]) -> Term:
    return Term(coefficient, ProbabilityTerm(tuple(labels), frozenset(accepted)))


def _corr(coefficient: float, labels: str, subset: Iterable[int]) -> Term:
    return Term(coefficient, CorrelatorTerm(tuple(labels), frozenset(subset)))


_AT_LEAST_TWO_MINUS = (
    (-1, -1, 1),
    (-1, 1, -1),
    (1, -1, -1),
    (-1, -1, -1),
)
_ALL_EQUAL_3 = ((1, 1, 1), (-1, -1, -1))
# Mismatch events: the qubit measuring A gives -1 while the two qubits
# measuring B disagree.
_MISMATCH_1 = ((-1, 1, -1), (-1, -1, 1))
_MISMATCH_2 = ((1, -1, -1), (-1, -1, 1))
_MISMATCH_3 = ((1, -1, -1), (-1, 1, -1))


def _mermin_terms() -> tuple[Term, ...]:
    return (
        _corr(1.0, "AAA", (1, 2, 3)),
        _corr(-1.0, "ABB", (1, 2, 3)),
        _corr(-1.0, "BAB", (1, 2, 3)),
        _corr(-1.0, "BBA", (1, 2, 3)),
    )


def _pairwise_terms(coefficient: float) -> tuple[Term, ...]:
    return (
        _corr(coefficient, "AAA", (1, 2)),
        _corr(coefficient, "AAA", (1, 3)),
        _corr(coefficient, "AAA", (2, 3)),
    )


def _build_catalog() -> dict[str, BellExpression]:
    three = SettingScheme.uniform(3)
    two = SettingScheme.uniform(2)
    catalog: dict[str, BellExpression] = {}

    catalog["cabello_ch"] = BellExpression(
        "cabello_ch",
        three,
        (
            _prob(1.0, "AAA", _AT_LEAST_TWO_MINUS),
            _prob(-1.0, "ABB", _MISMATCH_1),
            _prob(-1.0, "BAB", _MISMATCH_2),
            _prob(-1.0, "BBA", _MISMATCH_3),
            _prob(-1.0, "BBB", _ALL_EQUAL_3),
        ),
    )
    catalog["cabello_ch_literal"] = BellExpression(
        "cabello_ch_literal",
        three,
        (
            _prob(1.0, "AAA", _AT_LEAST_TWO_MINUS),
            _prob(-1.0, "ABB", _MISMATCH_1),
            _prob(-1.0, "BAB", _MISMATCH_2),
            _prob(-1.0, "BBB", _ALL_EQUAL_3),
        ),
    )
    catalog["cabello_ch_fixed"] = BellExpression(
        "cabello_ch_fixed",
        three,
        (
            _prob(1.0, "AAA", ((-1, -1, 1), (-1, -1, -1))),
            _prob(-1.0, "ABB", _MISMATCH_1),
            _prob(-1.0, "BAB", _MISMATCH_2),
            _prob(-1.0, "BBB", _ALL_EQUAL_3),
        ),
    )
    catalog["mermin"] = BellExpression("mermin", three, _mermin_terms())
    catalog["eq13"] = BellExpression(
        "eq13", three, _mermin_terms() + _pairwise_terms(-1.0)
    )
    catalog["eq14"] = BellExpression(
        "eq14", three, _mermin_terms() + _pairwise_terms(-2.0)
    )
    catalog["chsh"] = BellExpression(
        "chsh",
        two,
        (
            _corr(1.0, "AA", (1, 2)),
            _corr(1.0, "AB", (1, 2)),
            _corr(1.0, "BA", (1, 2)),
            _corr(-1.0, "BB", (1, 2)),
        ),
    )
    catalog["ch"] = BellExpression(
        "ch",
        two,
        (
            _prob(1.0, "AA", ((1, 1),)),
            _prob(-1.0, "AB", ((1, -1),)),
            _prob(-1.0, "BA", ((-1, 1),)),
            _prob(-1.0, "BB", ((1, 1),)),
        ),
    )
    return catalog


_CATALOG = _build_catalog()

# Classical ranges of the canonical inequality families.  Entries whose
# enumerated bounds differ (only cabello_ch_literal) get a warning in reports.
REFERENCE_BOUNDS: dict[str, tuple[float, float]] = {
    "cabello_ch": (-1.0, 0.0),
    "cabello_ch_literal": (-1.0, 0.0),
    "cabello_ch_fixed": (-1.0, 0.0),
    "mermin": (-2.0, 2.0),
    "eq13": (-5.0, 3.0),
    "eq14": (-8.0, 4.0),
    "chsh": (-2.0, 2.0),
    "ch": (-1.0, 0.0),
}

CATALOG_NOTES: dict[str, str] = {
    "cabello_ch_literal": (
        "not a valid locality bound: a deterministic assignment reaches +1; "
        "use cabello_ch, the symmetrized five-term form"
    ),
    "cabello_ch_fixed": (
        "valid [-1, 0] bound, but the fixed-pair first event gives W only "
        "-5/12 at A=z, B=x; use cabello_ch for the intended argument"
    ),
}


def catalog_ids() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog(expression_id: str) -> BellExpression:
    """Look up a catalog expression by id."""
    try:
        return _CATALOG[expression_id]
    except KeyError as exc:
        raise ConfigError(
            f"unknown expression id {expression_id!r}; known ids: {', '.join(_CATALOG)}"
        ) from exc


_MINUS_CHARS = {"-", "−"}


def _parse_outcome_string(token: str, num_qubits: int, where: str) -> tuple[int, ...]:
    if len(token) != num_qubits:
        raise ExpressionFormatError(
            f"{where}: outcome string {token!r} needs {num_qubits} characters"
        )
    outcomes = []
    for char in token:
        if char == "+":
            outcomes.append(1)
        elif char in _MINUS_CHARS:
            outcomes.append(-1)
        else:
            raise ExpressionFormatError(f"{where}: bad outcome character {char!r}")
    return tuple(outcomes)


def parse_expression_text(text: str, name: str = "custom") -> BellExpression:
    """Parse an expression from its text form.

    One term per line.  Correlator terms look like::

        COEFF CORR q1:LABEL q2:LABEL q3:LABEL SUBSET=1,2

    and probability terms like::

        COEFF PROB q1:LABEL q2:LABEL q3:LABEL ACCEPT=+--,-+-

    with one label per qubit, finite COEFFs whose magnitudes have a finite
    sum, 1-based subsets, outcome strings built from ``+`` and ``-``, and
    ``#`` starting a comment.
    """
    rows: list[tuple[float, str, dict[int, str], str, str]] = []
    num_qubits: int | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {line_number}"
        tokens = line.split()
        if len(tokens) < 4:
            raise ExpressionFormatError(f"{where}: too few fields in {raw!r}")
        try:
            coefficient = float(tokens[0])
        except ValueError:
            coefficient = math.nan
        if not math.isfinite(coefficient):
            raise ExpressionFormatError(f"{where}: bad coefficient {tokens[0]!r}")
        kind = tokens[1].upper()
        if kind not in ("CORR", "PROB"):
            raise ExpressionFormatError(f"{where}: kind must be CORR or PROB, got {tokens[1]!r}")
        labels: dict[int, str] = {}
        tail = ""
        for token in tokens[2:]:
            if token.upper().startswith("SUBSET=") or token.upper().startswith("ACCEPT="):
                tail = token
                continue
            if ":" not in token or not token.startswith("q"):
                raise ExpressionFormatError(f"{where}: bad qubit label token {token!r}")
            qubit_text, label = token.split(":", 1)
            try:
                qubit = int(qubit_text[1:])
            except ValueError as exc:
                raise ExpressionFormatError(f"{where}: bad qubit index {token!r}") from exc
            if qubit in labels:
                raise ExpressionFormatError(f"{where}: duplicate qubit q{qubit}")
            if not label:
                raise ExpressionFormatError(f"{where}: empty label in {token!r}")
            labels[qubit] = label
        if not tail:
            raise ExpressionFormatError(f"{where}: missing SUBSET= or ACCEPT= field")
        if sorted(labels) != list(range(1, len(labels) + 1)):
            raise ExpressionFormatError(
                f"{where}: qubit labels must cover q1..qN, got {sorted(labels)}"
            )
        if num_qubits is None:
            num_qubits = len(labels)
        elif num_qubits != len(labels):
            raise ExpressionFormatError(
                f"{where}: inconsistent qubit count {len(labels)} vs {num_qubits}"
            )
        rows.append((coefficient, kind, labels, tail, where))
    if not rows or num_qubits is None:
        raise ExpressionFormatError("expression file has no terms")
    magnitude = ordered_sum(abs(row[0]) for row in rows)
    if not math.isfinite(magnitude):  # every value is at most this in size
        raise ExpressionFormatError(f"the coefficients' magnitudes sum to {magnitude!r}")

    per_qubit_labels: list[list[str]] = [[] for _ in range(num_qubits)]
    for _, _, labels, _, _ in rows:
        for qubit, label in labels.items():
            if label not in per_qubit_labels[qubit - 1]:
                per_qubit_labels[qubit - 1].append(label)
    scheme = SettingScheme(tuple(tuple(found) for found in per_qubit_labels))

    terms: list[Term] = []
    for coefficient, kind, labels, tail, where in rows:
        ordered = tuple(labels[q] for q in range(1, num_qubits + 1))
        key, _, payload_text = tail.partition("=")
        if kind == "CORR":
            if key.upper() != "SUBSET":
                raise ExpressionFormatError(f"{where}: CORR term needs SUBSET=, got {key!r}")
            try:
                subset = frozenset(int(part) for part in payload_text.split(","))
            except ValueError as exc:
                raise ExpressionFormatError(f"{where}: bad subset {payload_text!r}") from exc
            if not subset or any(not 1 <= q <= num_qubits for q in subset):
                raise ExpressionFormatError(f"{where}: subset out of range {payload_text!r}")
            terms.append(Term(coefficient, CorrelatorTerm(ordered, subset)))
        else:
            if key.upper() != "ACCEPT":
                raise ExpressionFormatError(f"{where}: PROB term needs ACCEPT=, got {key!r}")
            accepted = frozenset(
                _parse_outcome_string(part, num_qubits, where)
                for part in payload_text.split(",")
                if part
            )
            if not accepted:
                raise ExpressionFormatError(f"{where}: empty ACCEPT set")
            terms.append(Term(coefficient, ProbabilityTerm(ordered, accepted)))
    return BellExpression(name, scheme, tuple(terms))


def parse_expression_file(path: Path | str) -> BellExpression:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read expression file {path}: {exc}") from exc
    return parse_expression_text(text, name=path.stem)


def resolve_expression(spec: str) -> BellExpression:
    """Resolve CLI syntax: a catalog id or ``file:<path>``."""
    if spec.startswith("file:"):
        return parse_expression_file(spec.split(":", 1)[1])
    return catalog(spec)


def _format_outcomes(accepted: frozenset[tuple[int, ...]]) -> str:
    return ",".join(
        "".join("+" if v == 1 else "-" for v in tup)
        for tup in sorted(accepted, reverse=True)
    )


def format_term(term: Term) -> str:
    """Render a term in the expression file format (round-trips the parser)."""
    payload = term.payload
    labels = " ".join(f"q{q}:{label}" for q, label in enumerate(payload.labels, start=1))
    if isinstance(payload, CorrelatorTerm):
        subset = ",".join(str(q) for q in sorted(payload.subset))
        return f"{term.coefficient:g} CORR {labels} SUBSET={subset}"
    return f"{term.coefficient:g} PROB {labels} ACCEPT={_format_outcomes(payload.accepted)}"


def format_expression(expression: BellExpression) -> str:
    """Render a whole expression in the expression file format."""
    return "\n".join(format_term(term) for term in expression.terms) + "\n"
