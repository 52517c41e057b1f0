"""Shared fixtures and oracle helpers for the test suite.

The ``kron_*`` helpers evaluate quantum values the direct way, building
Kronecker-product projectors and operators on the amplitude vector.  They
share no code with the package's compiled route (Pauli correlation tensor
and Walsh weights) and serve as its oracle.  ``scalar_hardy_*`` is the
one-point-at-a-time Hardy chain and grid loop, the oracle of the
broadcast search in ``bell3q.optimize``.
"""
import math
from functools import reduce

import numpy as np
import pytest

from bell3q import (
    Binding,
    CorrelatorTerm,
    MeasurementContext,
    Observable,
    StateVector,
    ghz,
    outcome_tuples,
    singlet,
    w,
)

PAULI_I = np.eye(2, dtype=complex)


@pytest.fixture
def w_state():
    return w()


@pytest.fixture
def ghz_state():
    return ghz()


@pytest.fixture
def singlet_state():
    return singlet()


def make_context(*observables):
    return MeasurementContext(tuple(observables))


def all_z(n):
    return make_context(*(Observable.z() for _ in range(n)))


def all_x(n):
    return make_context(*(Observable.x() for _ in range(n)))


def zx_binding(scheme):
    """Uniform A = z, B = x binding for any two-label scheme."""
    return Binding.uniform(scheme, {"A": Observable.z(), "B": Observable.x()})


def kron_outcome_probability(state, context, outcomes):
    """``|| (P_1 x ... x P_n) |psi> ||^2`` with per-qubit projectors."""
    projector = reduce(
        np.kron,
        [obs.projector(o) for obs, o in zip(context.observables, outcomes)],
    )
    projected = projector @ state.amplitudes
    return float(np.real(np.vdot(projected, projected)))


def kron_correlator(state, context, subset):
    """``<psi| M |psi>`` with the subset's observables, identity elsewhere."""
    factors = [
        obs.matrix() if q in subset else PAULI_I
        for q, obs in enumerate(context.observables, start=1)
    ]
    operator = reduce(np.kron, factors)
    return float(np.real(np.vdot(state.amplitudes, operator @ state.amplitudes)))


def kron_term_value(state, binding, term):
    """A term's quantum value, without its coefficient, by the kron route."""
    payload = term.payload
    context = make_context(
        *(binding.observable(q, label) for q, label in enumerate(payload.labels, start=1))
    )
    if isinstance(payload, CorrelatorTerm):
        return kron_correlator(state, context, payload.subset)
    return sum(kron_outcome_probability(state, context, o) for o in payload.accepted)


def brute_force_correlator(state, context, subset):
    """Correlator oracle via the full outcome distribution.

    Sums product-of-subset-outcomes times joint probability over all 2^n
    outcome tuples, the probabilities from the kron projectors.
    """
    total = 0.0
    for outcomes in outcome_tuples(state.num_qubits):
        sign = 1
        for q in subset:
            sign *= outcomes[q - 1]
        total += sign * kron_outcome_probability(state, context, outcomes)
    return total


def basis_state(num_qubits, index):
    amplitudes = np.zeros(2**num_qubits)
    amplitudes[index] = 1.0
    return StateVector(num_qubits, amplitudes)


def _plus_eigenvector(theta):
    half = math.pi / 4.0 - theta / 2.0
    return np.array([math.cos(half), math.sin(half)])


def _orthogonal(vector):
    return np.array([-vector[1], vector[0]])


def _angle_of_plus_eigenvector(vector):
    v = vector / np.linalg.norm(vector)
    return math.atan2(v[0] ** 2 - v[1] ** 2, 2.0 * v[0] * v[1]) % (2.0 * math.pi)


def scalar_hardy_chain(theta, beta2):
    """The sometimes-always-never chain at one (theta, beta2), built from
    explicit eigenvectors: a1 = +1 forces b2 = +1, a2 = +1 forces b1 = +1,
    and b1 = b2 = +1 never happens.  Returns p1 and the four angles."""
    amplitude = np.array([[math.cos(theta), 0.0], [0.0, math.sin(theta)]])
    b2_plus = _plus_eigenvector(beta2)
    chi_a = amplitude @ _orthogonal(b2_plus)
    a1_plus = _orthogonal(chi_a / np.linalg.norm(chi_a))
    chi_b = amplitude @ b2_plus
    b1_plus = _orthogonal(chi_b / np.linalg.norm(chi_b))
    chi_c = amplitude.T @ _orthogonal(b1_plus)
    a2_plus = _orthogonal(chi_c / np.linalg.norm(chi_c))
    p1 = float(a1_plus @ amplitude @ a2_plus) ** 2
    angles = (
        _angle_of_plus_eigenvector(a1_plus),
        _angle_of_plus_eigenvector(b1_plus),
        _angle_of_plus_eigenvector(a2_plus),
        beta2 % (2.0 * math.pi),
    )
    return p1, angles


def scalar_hardy_grid(thetas, betas):
    """Every grid point's p1 by a double loop, and the first strict maximum."""
    values = np.empty((len(thetas), len(betas)))
    best_value, winner = -math.inf, None
    for i, theta in enumerate(thetas):
        for j, beta in enumerate(betas):
            values[i, j], _ = scalar_hardy_chain(float(theta), float(beta))
            if values[i, j] > best_value:
                best_value, winner = values[i, j], (i, j)
    return values, winner
