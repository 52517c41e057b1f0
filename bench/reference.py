"""Independent references for checking bell3q's outputs.

Nothing here imports bell3q.  Expressions are held in the benchmark's own
form, a tuple of ``(coefficient, kind, labels, data)`` where ``kind`` is
``"CORR"`` (``data`` a frozenset of 1-based qubits) or ``"PROB"`` (``data`` a
frozenset of +-1 outcome tuples).  Quantum values come from contracting the
amplitude tensor with one change of basis per qubit; classical bounds come
from enumerating the outcomes of every qubit but the one with most labels
and closing that qubit in closed form, so 2**L strategies are never listed.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

SQRT2 = math.sqrt(2.0)
HARDY_MAXIMUM = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
CHSH_SINGLET = 2.0 * SQRT2
CH_SINGLET = (SQRT2 - 1.0) / 2.0

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


def plane(theta: float) -> tuple[float, float, float]:
    """Bloch direction at angle ``theta`` in the x-z plane (0 is x, pi/2 is z)."""
    return (math.cos(theta), 0.0, math.sin(theta))


# ---------------------------------------------------------------- expressions

def _corr(coefficient, labels, subset):
    return (float(coefficient), "CORR", tuple(labels), frozenset(subset))


def _prob(coefficient, labels, predicate, num_qubits):
    accepted = frozenset(o for o in product((1, -1), repeat=num_qubits) if predicate(o))
    return (float(coefficient), "PROB", tuple(labels), accepted)


def _mermin():
    return (
        _corr(1, "AAA", (1, 2, 3)),
        _corr(-1, "ABB", (1, 2, 3)),
        _corr(-1, "BAB", (1, 2, 3)),
        _corr(-1, "BBA", (1, 2, 3)),
    )


def _pairs(coefficient):
    return tuple(_corr(coefficient, "AAA", pair) for pair in ((1, 2), (1, 3), (2, 3)))


def _mismatch(i):
    j, k = [q for q in (1, 2, 3) if q != i]
    labels = "".join("A" if q == i else "B" for q in (1, 2, 3))
    return _prob(-1, labels, lambda o: o[i - 1] == -1 and o[j - 1] != o[k - 1], 3)


_TWO_MINUS = _prob(1, "AAA", lambda o: o.count(-1) >= 2, 3)
_ALL_EQUAL = _prob(-1, "BBB", lambda o: o[0] == o[1] == o[2], 3)

# The catalog as the paper and the package documentation state it, written
# independently of the package's own tables.
CATALOG = {
    "cabello_ch": (_TWO_MINUS, _mismatch(1), _mismatch(2), _mismatch(3), _ALL_EQUAL),
    "cabello_ch_literal": (_TWO_MINUS, _mismatch(1), _mismatch(2), _ALL_EQUAL),
    "cabello_ch_fixed": (
        _prob(1, "AAA", lambda o: o[0] == -1 and o[1] == -1, 3),
        _mismatch(1),
        _mismatch(2),
        _ALL_EQUAL,
    ),
    "mermin": _mermin(),
    "eq13": _mermin() + _pairs(-1),
    "eq14": _mermin() + _pairs(-2),
    "chsh": (
        _corr(1, "AA", (1, 2)),
        _corr(1, "AB", (1, 2)),
        _corr(1, "BA", (1, 2)),
        _corr(-1, "BB", (1, 2)),
    ),
    "ch": (
        _prob(1, "AA", lambda o: o == (1, 1), 2),
        _prob(-1, "AB", lambda o: o == (1, -1), 2),
        _prob(-1, "BA", lambda o: o == (-1, 1), 2),
        _prob(-1, "BB", lambda o: o == (1, 1), 2),
    ),
}

# Closed-form classical ranges (a deterministic strategy reaches +1 on the
# literal four-term reading, which is why it is no locality bound).
CATALOG_BOUNDS = {
    "cabello_ch": (-1.0, 0.0),
    "cabello_ch_literal": (-1.0, 1.0),
    "cabello_ch_fixed": (-1.0, 0.0),
    "mermin": (-2.0, 2.0),
    "eq13": (-5.0, 3.0),
    "eq14": (-8.0, 4.0),
    "chsh": (-2.0, 2.0),
    "ch": (-1.0, 0.0),
}


def num_qubits(terms) -> int:
    return len(terms[0][2])


def scheme(terms) -> list[list[str]]:
    """Labels per qubit in order of first appearance."""
    labels: list[list[str]] = [[] for _ in range(num_qubits(terms))]
    for _, _, term_labels, _ in terms:
        for q, label in enumerate(term_labels):
            if label not in labels[q]:
                labels[q].append(label)
    return labels


def _outcome_text(outcomes) -> str:
    return "".join("+" if v == 1 else "-" for v in outcomes)


def format_terms(terms) -> str:
    """Render terms in the package's expression file format."""
    lines = []
    for coefficient, kind, labels, data in terms:
        qubits = " ".join(f"q{q}:{label}" for q, label in enumerate(labels, start=1))
        if kind == "CORR":
            tail = "SUBSET=" + ",".join(str(q) for q in sorted(data))
        else:
            tail = "ACCEPT=" + ",".join(_outcome_text(o) for o in sorted(data, reverse=True))
        lines.append(f"{coefficient!r} {kind} {qubits} {tail}")
    return "\n".join(lines) + "\n"


def parse_term(line: str):
    """Parse one line of the expression file format (no comments)."""
    tokens = line.split()
    coefficient, kind = float(tokens[0]), tokens[1].upper()
    labels = tuple(token.split(":", 1)[1] for token in tokens[2:-1])
    payload = tokens[-1].split("=", 1)[1]
    if kind == "CORR":
        data = frozenset(int(q) for q in payload.split(","))
    else:
        data = frozenset(
            tuple(1 if c == "+" else -1 for c in part) for part in payload.split(",") if part
        )
    return (coefficient, kind, labels, data)


def same_terms(a, b) -> bool:
    """Equal as multisets of terms (order of terms does not matter)."""
    def canonical(terms):
        return sorted((c, kind, labels, tuple(sorted(data))) for c, kind, labels, data in terms)

    return canonical(a) == canonical(b)


# ------------------------------------------------------------ quantum values

def _basis_rows(direction) -> np.ndarray:
    """Rows are the bras of the +1 and -1 eigenvectors of ``n . sigma``."""
    x, y, z = direction
    if z > -1.0 + 1e-12:
        s = math.sqrt(2.0 * (1.0 + z))
        plus = np.array([(1.0 + z) / s, complex(x, y) / s])
    else:
        plus = np.array([0.0, 1.0], dtype=complex)
    minus = np.array([-np.conj(plus[1]), np.conj(plus[0])])
    return np.array([plus.conj(), minus.conj()])


def distribution(amplitudes, directions) -> np.ndarray:
    """Joint outcome probabilities, axis q indexed 0 for +1 and 1 for -1."""
    n = len(directions)
    tensor = np.asarray(amplitudes, dtype=complex).reshape((2,) * n)
    for q, direction in enumerate(directions):
        tensor = np.moveaxis(np.tensordot(_basis_rows(direction), tensor, axes=([1], [q])), 0, q)
    return np.abs(tensor) ** 2


def _index(outcomes) -> tuple[int, ...]:
    return tuple(0 if v == 1 else 1 for v in outcomes)


def event(dist: np.ndarray, outcomes_set) -> float:
    return float(sum(dist[_index(o)] for o in outcomes_set))


def term_value(term, amplitudes, binding) -> float:
    """Value of one term without its coefficient; ``binding`` maps
    ``(qubit, label)`` to a Bloch direction."""
    _, kind, labels, data = term
    directions = [binding[(q, label)] for q, label in enumerate(labels, start=1)]
    dist = distribution(amplitudes, directions)
    if kind == "PROB":
        return event(dist, data)
    total = 0.0
    for outcomes in product((1, -1), repeat=len(labels)):
        sign = math.prod(outcomes[q - 1] for q in data)
        total += sign * dist[_index(outcomes)]
    return float(total)


def quantum_value(terms, amplitudes, binding) -> float:
    return sum(t[0] * term_value(t, amplitudes, binding) for t in terms)


def uniform_binding(terms, by_label) -> dict:
    return {
        (q, label): by_label[label]
        for q, labels in enumerate(scheme(terms), start=1)
        for label in labels
    }


def w_chain(amplitudes) -> dict:
    """The three-qubit chain's probabilities from their definitions."""
    zzz = distribution(amplitudes, (Z, Z, Z))
    xxx = distribution(amplitudes, (X, X, X))
    outcomes = list(product((1, -1), repeat=3))
    conditionals = []
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        dirs = [X, X, X]
        dirs[i - 1] = Z
        dist = distribution(amplitudes, dirs)
        premise = event(dist, [o for o in outcomes if o[i - 1] == -1])
        joint = event(dist, [o for o in outcomes if o[i - 1] == -1 and o[j - 1] == o[k - 1]])
        conditionals.append(joint / premise)
    mean = sum(conditionals) / 3.0
    return {
        "p1": event(zzz, [o for o in outcomes if o.count(-1) >= 2]),
        "p2": mean,
        "p3": mean,
        "p4": event(xxx, [(1, 1, 1), (-1, -1, -1)]),
        "conditionals": conditionals,
    }


def hardy_chain(amplitudes, a1, b1, a2, b2) -> dict:
    """The sometimes-always-never chain and the ch middle term."""
    aa = distribution(amplitudes, (a1, a2))
    ab = distribution(amplitudes, (a1, b2))
    ba = distribution(amplitudes, (b1, a2))
    bb = distribution(amplitudes, (b1, b2))
    p1, p4 = float(aa[0, 0]), float(bb[0, 0])
    return {
        "p1": p1,
        "p2": float(ab[0, 0] / (ab[0, 0] + ab[0, 1])),
        "p3": float(ba[0, 0] / (ba[0, 0] + ba[1, 0])),
        "p4": p4,
        "ch_middle": p1 - float(ab[0, 1]) - float(ba[1, 0]) - p4,
    }


def hardy_state(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])


def _kron(*vectors) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out


def ghz_state() -> np.ndarray:
    """(|y+ y+ y+> + |y- y- y->) / sqrt 2 in the z basis."""
    y_plus = np.array([1.0, 1j]) / SQRT2
    y_minus = np.array([1.0, -1j]) / SQRT2
    return (_kron(y_plus, y_plus, y_plus) + _kron(y_minus, y_minus, y_minus)) / SQRT2


def w_state() -> np.ndarray:
    """(|+--> + |-+-> + |--+>) / sqrt 3, with |+> first in the z basis."""
    plus, minus = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    return (_kron(plus, minus, minus) + _kron(minus, plus, minus) + _kron(minus, minus, plus)) / math.sqrt(3.0)


def singlet_state() -> np.ndarray:
    plus, minus = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    return (_kron(plus, minus) - _kron(minus, plus)) / SQRT2


def pair_concurrence(amplitudes, traced: int) -> float:
    """Wootters concurrence of the pair left after tracing out one qubit."""
    tensor = np.moveaxis(np.asarray(amplitudes, dtype=complex).reshape(2, 2, 2), traced - 1, 2)
    kept = tensor.reshape(4, 2)
    rho = kept @ kept.conj().T
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    eig = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    roots = sorted(np.sqrt(np.clip(eig.real, 0.0, None)), reverse=True)
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


# ------------------------------------------------------------ classical bounds

def exact_bounds(terms) -> tuple[float, float]:
    """Exact classical range without listing all 2**L strategies.

    With every qubit but one fixed, each term is affine in the outcome of the
    free qubit's one label, and different labels are independent, so the
    optimum over that qubit is ``const +- sum_label |slope_label|``.  The
    free qubit is the one with most labels; the rest are enumerated.
    """
    labels = scheme(terms)
    n = len(labels)
    free = max(range(n), key=lambda q: len(labels[q]))
    fixed = [(q, label) for q in range(n) if q != free for label in labels[q]]
    column = {pair: i for i, pair in enumerate(fixed)}
    count = 2 ** len(fixed)
    bits = np.arange(count, dtype=np.int64)
    outcomes = np.stack(
        [np.where((bits >> i) & 1, -1, 1) for i in range(len(fixed))] or [np.ones(count, int)],
        axis=1,
    )
    const = np.zeros(count)
    slopes = {label: np.zeros(count) for label in labels[free]}
    for coefficient, kind, term_labels, data in terms:
        per_sign = {}
        for s in (1, -1):
            if kind == "CORR":
                value = np.ones(count)
                for q in data:
                    if q - 1 == free:
                        value = value * s
                    else:
                        value = value * outcomes[:, column[(q - 1, term_labels[q - 1])]]
            else:
                value = np.zeros(count)
                for accepted in data:
                    if accepted[free] != s:
                        continue
                    match = np.ones(count, dtype=bool)
                    for q, wanted in enumerate(accepted):
                        if q != free:
                            match &= outcomes[:, column[(q, term_labels[q])]] == wanted
                    value = value + match
            per_sign[s] = value
        const += coefficient * (per_sign[1] + per_sign[-1]) / 2.0
        slopes[term_labels[free]] += coefficient * (per_sign[1] - per_sign[-1]) / 2.0
    spread = sum(np.abs(slope) for slope in slopes.values())
    return float(np.min(const - spread)), float(np.max(const + spread))


def strategy_value(terms, outcomes: dict) -> float:
    """Value of a deterministic strategy given as ``{"q1:A": +-1, ...}``."""
    total = 0.0
    for coefficient, kind, labels, data in terms:
        assigned = tuple(outcomes[f"q{q}:{label}"] for q, label in enumerate(labels, start=1))
        if kind == "CORR":
            total += coefficient * math.prod(assigned[q - 1] for q in data)
        elif assigned in data:
            total += coefficient
    return total


# ------------------------------------------------------------ optimisation

def symmetric_value(terms, amplitudes, angles: dict) -> float:
    """Value with one x-z plane angle per label, shared by every qubit."""
    return quantum_value(terms, amplitudes, uniform_binding(terms, {k: plane(v) for k, v in angles.items()}))


def free_value(terms, amplitudes, angles: dict) -> float:
    """Value with one x-z plane angle per ``"q<i>:<label>"`` key."""
    binding = {}
    for key, angle in angles.items():
        qubit, label = key.split(":", 1)
        binding[(int(qubit[1:]), label)] = plane(angle)
    return quantum_value(terms, amplitudes, binding)


def _plane_operators(thetas: np.ndarray) -> np.ndarray:
    ops = np.zeros((len(thetas), 2, 2))
    ops[:, 0, 0], ops[:, 1, 1] = np.sin(thetas), -np.sin(thetas)
    ops[:, 0, 1] = ops[:, 1, 0] = np.cos(thetas)
    return ops


def mermin_symmetric_scan(amplitudes) -> float:
    """Maximum of mermin over shared x-z settings (A, B) for a real
    three-qubit state, by a full grid scan and successive zoomed grids."""
    psi = np.real(np.asarray(amplitudes)).reshape(2, 2, 2)

    def grid(a_axis, b_axis):
        a, b = _plane_operators(a_axis), _plane_operators(b_axis)
        aaa = np.einsum("ijk,ail,ajm,akn,lmn->a", psi, a, a, a, psi)[:, None]
        abb = np.einsum("ijk,ail,bjm,bkn,lmn->ab", psi, a, b, b, psi)
        bab = np.einsum("ijk,bil,ajm,bkn,lmn->ab", psi, b, a, b, psi)
        bba = np.einsum("ijk,bil,bjm,akn,lmn->ab", psi, b, b, a, psi)
        return aaa - abb - bab - bba

    a_axis = b_axis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    half = math.pi / 180.0
    for _ in range(8):
        values = grid(a_axis, b_axis)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        best = float(values[i, j])
        a0, b0 = a_axis[i], b_axis[j]
        a_axis = np.linspace(a0 - half, a0 + half, 41)
        b_axis = np.linspace(b0 - half, b0 + half, 41)
        half /= 10.0
    return best
