"""State catalog: frozen amplitudes, symmetries and file loading."""
import math
from itertools import permutations, product

import numpy as np
import pytest

from bell3q import (
    ConfigError,
    NormalizationError,
    StateFormatError,
    StateSpec,
    build,
    ghz,
    hardy,
    load_custom,
    singlet,
    w,
)

from conftest import permute_qubits

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def test_ghz_amplitudes_frozen():
    expected = np.array([0.5, 0.0, 0.0, -0.5, 0.0, -0.5, -0.5, 0.0])
    assert np.allclose(ghz().amplitudes, expected, atol=1e-15)


def test_w_amplitudes_frozen():
    expected = np.zeros(8)
    expected[[3, 5, 6]] = 1.0 / SQRT3
    assert np.allclose(w().amplitudes, expected, atol=1e-15)


def test_singlet_amplitudes_frozen():
    expected = np.array([0.0, 1.0 / SQRT2, -1.0 / SQRT2, 0.0])
    assert np.allclose(singlet().amplitudes, expected, atol=1e-15)


def test_hardy_amplitudes():
    theta = 0.3
    state = hardy(theta)
    expected = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])
    assert np.allclose(state.amplitudes, expected, atol=1e-15)


def test_ghz_in_the_y_product_basis():
    # expanding ghz over the eight y product states must leave exactly two
    # nonzero coefficients, both of magnitude 1/sqrt(2), on the two
    # same-handed combinations
    plus_y = np.array([1.0, 1.0j]) / SQRT2
    minus_y = np.array([1.0, -1.0j]) / SQRT2
    state = ghz().amplitudes
    coefficients = {}
    for signs in product((1, -1), repeat=3):
        vector = np.array([1.0])
        for sign in signs:
            vector = np.kron(vector, plus_y if sign == 1 else minus_y)
        coefficients[signs] = complex(np.vdot(vector, state))
    large = {k: v for k, v in coefficients.items() if abs(v) > 1e-12}
    assert set(large) == {(1, 1, 1), (-1, -1, -1)}
    for value in large.values():
        assert abs(value) == pytest.approx(1.0 / SQRT2, abs=1e-12)


def test_w_and_ghz_permutation_invariance():
    for state in (w(), ghz()):
        for perm in permutations((1, 2, 3)):
            assert np.allclose(
                permute_qubits(state, perm).amplitudes, state.amplitudes, atol=1e-15
            )


def test_hardy_angle_range():
    with pytest.raises(ConfigError):
        hardy(0.0)
    with pytest.raises(ConfigError):
        hardy(-0.2)
    with pytest.raises(ConfigError):
        hardy(math.pi / 4.0 + 1e-6)


def test_hardy_boundary_warns():
    with pytest.warns(UserWarning):
        state = hardy(math.pi / 4.0)
    assert state.amplitudes[0] == pytest.approx(1.0 / SQRT2, abs=1e-12)


def test_state_spec_parsing():
    assert StateSpec.parse("ghz").kind == "ghz"
    assert StateSpec.parse("w").describe() == "w"
    spec = StateSpec.parse("hardy:0.3")
    assert spec.kind == "hardy"
    assert spec.angle == pytest.approx(0.3)
    assert spec.describe() == "hardy:0.3"
    file_spec = StateSpec.parse("file:/tmp/some.txt")
    assert file_spec.kind == "custom"
    assert str(file_spec.path) == "/tmp/some.txt"
    assert file_spec.describe() == "file:/tmp/some.txt"


def test_state_spec_rejects_garbage():
    with pytest.raises(ConfigError):
        StateSpec.parse("bell")
    with pytest.raises(ConfigError):
        StateSpec.parse("hardy:abc")
    with pytest.raises(ConfigError):
        StateSpec.parse("hardy:")


def test_build_dispatch():
    assert np.allclose(build(StateSpec.parse("ghz")).amplitudes, ghz().amplitudes)
    assert np.allclose(build(StateSpec.parse("w")).amplitudes, w().amplitudes)
    assert np.allclose(
        build(StateSpec.parse("singlet")).amplitudes, singlet().amplitudes
    )
    assert np.allclose(
        build(StateSpec.parse("hardy:0.25")).amplitudes, hardy(0.25).amplitudes
    )


def _write(tmp_path, text):
    path = tmp_path / "state.txt"
    path.write_text(text)
    return path


def test_load_custom_round_trip(tmp_path):
    lines = ["# two-qubit maximally anticorrelated pair"]
    for amplitude in singlet().amplitudes:
        lines.append(f"{float(amplitude.real)!r} {float(amplitude.imag)!r}")
    path = _write(tmp_path, "\n".join(lines) + "\n")
    state = load_custom(path)
    assert state.num_qubits == 2
    assert np.allclose(state.amplitudes, singlet().amplitudes, atol=1e-12)


def test_load_custom_three_qubits_with_comments(tmp_path):
    body = "\n".join(
        ["# w-like support", ""]
        + [f"{x} 0" for x in (0, 0, 0, 1 / SQRT3, 0, 1 / SQRT3, 1 / SQRT3, 0)]
    )
    state = load_custom(_write(tmp_path, body))
    assert state.num_qubits == 3
    assert np.allclose(state.amplitudes, w().amplitudes, atol=1e-12)


def test_load_custom_complex_amplitudes(tmp_path):
    path = _write(tmp_path, "0.70710678118654752 0\n0 0.70710678118654752\n0 0\n0 0\n")
    state = load_custom(path)
    assert state.amplitudes[1] == pytest.approx(1j / SQRT2, abs=1e-12)


def test_load_custom_wrong_count(tmp_path):
    with pytest.raises(StateFormatError):
        load_custom(_write(tmp_path, "1 0\n0 0\n0 0\n"))
    with pytest.raises(StateFormatError):
        load_custom(_write(tmp_path, "\n".join(["1 0"] * 5)))


def test_load_custom_bad_tokens(tmp_path):
    with pytest.raises(StateFormatError):
        load_custom(_write(tmp_path, "1 0\n0 0\n0 0\nx 0\n"))
    with pytest.raises(StateFormatError):
        load_custom(_write(tmp_path, "1\n0\n0\n0\n"))


def test_load_custom_norm_contract(tmp_path):
    with pytest.raises(NormalizationError):
        load_custom(_write(tmp_path, "0.9 0\n0 0\n0 0\n0 0\n"))
    # drift below the tolerance is renormalized, not rejected
    state = load_custom(_write(tmp_path, f"{1.0 + 5e-7!r} 0\n0 0\n0 0\n0 0\n"))
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_load_custom_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_custom(tmp_path / "absent.txt")
