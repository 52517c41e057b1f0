"""Pure-state quantum mechanics for two and three qubits.

Conventions used throughout the package:

* Qubit 1 is the most significant bit of the amplitude index, so for two
  qubits the basis order is ``|++>, |+->, |-+>, |-->``.
* Bit value 0 encodes the +1 outcome of the z spin observable, bit value 1
  encodes the -1 outcome.
* Observables are unit Bloch directions ``n . sigma`` with eigenvalues +-1;
  the projector onto outcome ``o`` is ``(I + o n . sigma) / 2``.
* An angle ``theta`` in the x-z plane denotes the direction
  ``(cos theta, 0, sin theta)``, so ``theta = 0`` is x and ``theta = pi/2``
  is z.

Every quantum value goes through one compiled form: a state's Pauli
correlation tensor, built on first use, contracted per qubit with
``(1, 0, 0, 0)`` and one ``(0, n)`` row per observable gives the correlator
of every choice of identity or one observable per qubit
(``correlation_table``): every label's observable for the expressions under
a binding, kept by the state for the last key (``StateVector.last_table``);
every observable of an argument chain, whose contexts read ``(2,) * n``
sub-tables.  Probabilities expand into those correlators through
``[s = o] = (1 + o s) / 2``; ``WalshForm`` holds the integer weight of each
subset, which the other modules read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, product
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractViolationError

NORM_ATOL = 1e-9
CONDITION_FLOOR = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Axis order of the Pauli correlation tensor.
PAULI_AXES = "Ixyz"
_PAULIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0.  Builtin ``sum`` compensates
    floats from Python 3.12 on, which would move results by an ulp between
    versions."""
    total = 0.0
    for value in values:
        total += value
    return total


def outcome_tuples(num_qubits: int) -> tuple[tuple[int, ...], ...]:
    """All outcome tuples in amplitude-index order, +1 before -1."""
    return tuple(product((1, -1), repeat=num_qubits))


def basis_index(outcomes: Sequence[int]) -> int:
    """Amplitude index of an outcome tuple, qubit 1 most significant."""
    index = 0
    for value in outcomes:
        index = (index << 1) | (0 if value == 1 else 1)
    return index


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of two or three qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits not in (2, 3):
            raise ContractViolationError(
                f"expected 2 or 3 qubits, got {self.num_qubits}"
            )
        amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amplitudes.size != 2**self.num_qubits:
            raise ContractViolationError(
                f"expected {2 ** self.num_qubits} amplitudes, got {amplitudes.size}"
            )
        norm = float(np.linalg.norm(amplitudes))
        if not abs(norm - 1.0) <= NORM_ATOL:  # also refuses NaN and inf
            raise ContractViolationError(
                f"state norm {norm!r} deviates from 1 by more than {NORM_ATOL}"
            )
        object.__setattr__(self, "amplitudes", _read_only(amplitudes))

    @property
    def dimension(self) -> int:
        return 2**self.num_qubits

    @cached_property
    def pauli_tensor(self) -> np.ndarray:
        """``<sigma_i1 x ... x sigma_in>`` with each ``i`` in ``PAULI_AXES``
        order, shape ``(4,) * n``."""
        n = self.num_qubits
        paulis, rows, cols = "ABC"[:n], "DEF"[:n], "GHI"[:n]
        spec = ",".join(p + r + c for p, r, c in zip(paulis, rows, cols))
        psi = self.amplitudes.reshape((2,) * n)
        tensor = np.einsum(f"{spec},{rows},{cols}->{paulis}", *[_PAULIS] * n, psi.conj(), psi)
        return _read_only(np.ascontiguousarray(tensor.real))

    def last_table(self, key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        """``build()`` made read-only and kept for the last ``key`` (by ``==``) only."""
        memo = self.__dict__.get("_last_table")
        if memo is None or memo[0] != key:
            memo = self.__dict__["_last_table"] = (key, _read_only(build()))
        return memo[1]


@dataclass(frozen=True)
class Observable:
    """Spin observable along a unit Bloch direction."""

    direction: tuple[float, float, float]

    def __post_init__(self) -> None:
        direction = tuple(float(c) for c in self.direction)
        if len(direction) != 3:
            raise ContractViolationError("direction must have three components")
        norm = math.sqrt(ordered_sum(c * c for c in direction))
        if not abs(norm - 1.0) <= NORM_ATOL:  # also refuses NaN and inf
            raise ContractViolationError(
                f"direction norm {norm!r} deviates from 1 by more than {NORM_ATOL}"
            )
        object.__setattr__(self, "direction", direction)

    @classmethod
    def z(cls) -> "Observable":
        return cls((0.0, 0.0, 1.0))

    @classmethod
    def x(cls) -> "Observable":
        return cls((1.0, 0.0, 0.0))

    @classmethod
    def y(cls) -> "Observable":
        return cls((0.0, 1.0, 0.0))

    @classmethod
    def xz_plane(cls, theta: float) -> "Observable":
        """Observable at angle ``theta`` in the x-z plane."""
        if not math.isfinite(theta):  # math.cos raises on infinities
            raise ContractViolationError(f"angle {theta!r} must be finite")
        return cls((math.cos(theta), 0.0, math.sin(theta)))


def _observable(obs) -> Observable:
    if not isinstance(obs, Observable):
        raise ContractViolationError(f"not an observable: {obs!r}")
    return obs


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Two-qubit (or general) density matrix with validated invariants."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ContractViolationError(f"density matrix must be square, got {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ContractViolationError("density matrix entries must be finite")
        trace = complex(np.trace(matrix))
        if abs(trace - 1.0) > NORM_ATOL:
            raise ContractViolationError(f"trace {trace!r} deviates from 1")
        if not np.allclose(matrix, matrix.conj().T, atol=NORM_ATOL):
            raise ContractViolationError("density matrix is not Hermitian")
        eigenvalues = np.linalg.eigvalsh(matrix)
        if float(eigenvalues.min()) < -NORM_ATOL:
            raise ContractViolationError(
                f"negative eigenvalue {eigenvalues.min()!r} in density matrix"
            )
        object.__setattr__(self, "matrix", _read_only(matrix))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@cache
def _subsets(num_qubits: int) -> dict[tuple[int, ...], int]:
    """Every qubit subset, by size and then in lexicographic order, mapped
    to its bit mask, qubit 1 most significant."""
    qubits = range(1, num_qubits + 1)
    return {
        subset: sum(1 << (num_qubits - q) for q in subset)
        for size in range(num_qubits + 1)
        for subset in combinations(qubits, size)
    }


def _walsh_hadamard(values: list[int]) -> list[int]:
    """``out[s] = sum_m values[m] (-1)^popcount(s & m)``; applied twice it
    multiplies by ``len(values)``."""
    values = list(values)
    half = 1
    while half < len(values):
        for start in range(0, len(values), 2 * half):
            for i in range(start, start + half):
                a, b = values[i], values[i + half]
                values[i], values[i + half] = a + b, a - b
        half *= 2
    return values


@dataclass(frozen=True)
class WalshForm:
    """A function of +-1 outcomes as ``sum_S weight_S prod_{q in S} s_q``
    divided by ``denominator``; ``S`` runs over 1-based qubit tuples, by size
    and then in lexicographic order, and the empty tuple is the constant."""

    denominator: int
    weights: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def of_event(cls, accepted: Iterable[tuple[int, ...]], num_qubits: int) -> "WalshForm":
        """Indicator of a set of outcome tuples, each expanded through
        ``[s = o] = prod_q (1 + o_q s_q) / 2``."""
        indicator = [0] * 2**num_qubits
        for outcomes in accepted:
            indicator[basis_index(outcomes)] = 1
        dense = _walsh_hadamard(indicator)
        weights = ((subset, dense[mask]) for subset, mask in _subsets(num_qubits).items())
        return cls(2**num_qubits, tuple((s, w) for s, w in weights if w))

    def value(self, table: np.ndarray) -> float:
        """Contract with a ``correlation_table``."""
        masks, flat = _subsets(table.ndim), table.reshape(-1)
        total = sum(weight * flat[masks[subset]] for subset, weight in self.weights)
        return float(total) / self.denominator

    def integer_table(self, num_qubits: int) -> list[int]:
        """``denominator`` times the function on every outcome tuple, exact
        integers in amplitude-index order."""
        dense = [0] * 2**num_qubits
        masks = _subsets(num_qubits)
        for subset, weight in self.weights:
            dense[masks[subset]] = weight
        return _walsh_hadamard(dense)


def correlation_table(
    state: StateVector, observables: Sequence[Sequence[Observable]]
) -> np.ndarray:
    """Correlators of every choice of identity or one observable per qubit,
    shape ``(1 + L_1, ..., 1 + L_n)`` for ``L_q`` observables on qubit ``q``.

    Index 0 on an axis is the identity and index ``k`` the ``k``-th
    observable, so entry ``[k1, ..., kn]`` is the expectation of the product
    of the chosen observables: the Pauli correlation tensor contracted on
    each qubit with ``(1, 0, 0, 0)`` and one ``(0, n)`` row per observable.
    With one observable per qubit the shape is ``(2,) * n``.
    """
    if len(observables) != state.num_qubits:
        raise ContractViolationError(
            f"observables for {len(observables)} qubits given for a "
            f"{state.num_qubits}-qubit state"
        )
    table = state.pauli_tensor
    for per_qubit in observables:
        rows = np.array([(1.0, 0.0, 0.0, 0.0), *((0.0, *_observable(o).direction) for o in per_qubit)])
        # contract the leading axis; the new one goes last, so after every
        # qubit the axes are back in order
        table = (rows @ table.reshape(4, -1)).T
    return table.reshape(tuple(1 + len(per_qubit) for per_qubit in observables))


def partial_trace(state: StateVector, traced_qubit: int) -> DensityMatrix:
    """Reduced two-qubit density matrix after tracing out one qubit of three."""
    if state.num_qubits != 3:
        raise ContractViolationError("partial_trace expects a three-qubit state")
    if not 1 <= traced_qubit <= 3:
        raise ContractViolationError(f"qubit index {traced_qubit} out of range")
    tensor = state.amplitudes.reshape(2, 2, 2)
    kept = np.moveaxis(tensor, traced_qubit - 1, 2).reshape(4, 2)
    return DensityMatrix(kept @ kept.conj().T)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence: ``max(0, l1 - l2 - l3 - l4)`` over the square
    roots of the eigenvalues of ``rho (sy x sy) rho* (sy x sy)`` sorted
    descending."""
    if rho.dimension != 4:
        raise ContractViolationError("concurrence expects a two-qubit density matrix")
    spin_flip = np.kron(PAULI_Y, PAULI_Y)
    flipped = spin_flip @ rho.matrix.conj() @ spin_flip
    eigenvalues = np.linalg.eigvals(rho.matrix @ flipped)
    roots = np.sqrt(np.clip(np.real(eigenvalues), 0.0, None))
    roots[::-1].sort()
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))
