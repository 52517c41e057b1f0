"""State catalog: three-qubit GHZ and W, the singlet, and the Hardy family.

The GHZ state used here is the y-eigenbasis one,
``(|y+ y+ y+> + |y- y- y->) / sqrt 2`` with ``|y+-> = (|+> +- i|->) / sqrt 2``,
which expands in the z basis to ``(|+++> - |+--> - |-+-> - |--+>) / 2``.
All amplitudes in this module are real in the z basis.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NormalizationError, StateFormatError
from .qcore import StateVector

CUSTOM_NORM_ATOL = 1e-6

CATALOG_DESCRIPTIONS = {
    "ghz": "three-qubit GHZ state in the y eigenbasis, z-basis amplitudes (1/2)(|+++> - |+--> - |-+-> - |--+>)",
    "w": "three-qubit W state (|+--> + |-+-> + |--+>) / sqrt 3",
    "singlet": "two-qubit singlet (|+-> - |-+>) / sqrt 2",
    "hardy": "two-qubit family cos(theta)|++> + sin(theta)|-->, theta in (0, pi/4]",
}


@dataclass(frozen=True)
class StateSpec:
    """Parsed reference to a catalog state or a custom amplitude file."""

    kind: str
    angle: float | None = None
    path: Path | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("ghz", "w", "singlet", "hardy", "custom"):
            raise ConfigError(f"unknown state kind {self.kind!r}")
        if self.kind == "hardy" and self.angle is None:
            raise ConfigError("hardy state requires an angle")
        if self.kind == "custom" and self.path is None:
            raise ConfigError("custom state requires a file path")

    @classmethod
    def parse(cls, text: str) -> "StateSpec":
        """Parse CLI syntax: ghz | w | singlet | hardy:<rad> | file:<path>."""
        if text in ("ghz", "w", "singlet"):
            return cls(text)
        if text.startswith("hardy:"):
            try:
                angle = float(text.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad hardy angle in {text!r}") from exc
            return cls("hardy", angle=angle)
        if text.startswith("file:"):
            return cls("custom", path=Path(text.split(":", 1)[1]))
        raise ConfigError(f"unknown state spec {text!r}")

    def describe(self) -> str:
        if self.kind == "hardy":
            return f"hardy:{self.angle}"
        if self.kind == "custom":
            return f"file:{self.path}"
        return self.kind


def ghz() -> StateVector:
    amplitudes = np.zeros(8)
    amplitudes[0] = 0.5
    amplitudes[3] = -0.5
    amplitudes[5] = -0.5
    amplitudes[6] = -0.5
    return StateVector(3, amplitudes)


def w() -> StateVector:
    amplitudes = np.zeros(8)
    amplitudes[3] = amplitudes[5] = amplitudes[6] = 1.0 / math.sqrt(3.0)
    return StateVector(3, amplitudes)


def singlet() -> StateVector:
    amplitudes = np.zeros(4)
    amplitudes[1] = 1.0 / math.sqrt(2.0)
    amplitudes[2] = -1.0 / math.sqrt(2.0)
    return StateVector(2, amplitudes)


def hardy(theta: float) -> StateVector:
    """Nonmaximally entangled pair cos(theta)|++> + sin(theta)|-->.

    The angle must lie in (0, pi/4].  The boundary pi/4 is accepted but
    flagged with a warning: a maximally entangled pair supports no
    sometimes-always-never chain with a nonzero first probability.
    """
    if not 0.0 < theta <= math.pi / 4.0:
        raise ConfigError(f"hardy angle {theta!r} outside (0, pi/4]")
    if abs(theta - math.pi / 4.0) < 1e-12:
        warnings.warn(
            "hardy angle pi/4 is maximally entangled; the Hardy probability vanishes",
            UserWarning,
            stacklevel=2,
        )
    amplitudes = np.zeros(4)
    amplitudes[0] = math.cos(theta)
    amplitudes[3] = math.sin(theta)
    return StateVector(2, amplitudes)


def load_custom(path: Path | str) -> StateVector:
    """Load amplitudes from a text file, one ``re im`` pair per line.

    Lines starting with ``#`` and blank lines are skipped.  The file must
    contain exactly 4 or 8 amplitude pairs.  Amplitudes are renormalized when
    the norm is within 1e-6 of 1, otherwise a NormalizationError is raised.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read state file {path}: {exc}") from exc
    values: list[complex] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise StateFormatError(
                f"{path}:{line_number}: expected 're im', got {raw!r}"
            )
        try:
            re_part, im_part = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise StateFormatError(
                f"{path}:{line_number}: non-numeric amplitude {raw!r}"
            ) from exc
        values.append(complex(re_part, im_part))
    if len(values) not in (4, 8):
        raise StateFormatError(
            f"{path}: expected 4 or 8 amplitudes, got {len(values)}"
        )
    amplitudes = np.array(values, dtype=complex)
    norm = float(np.linalg.norm(amplitudes))
    if not abs(norm - 1.0) <= CUSTOM_NORM_ATOL:  # also refuses NaN and inf
        raise NormalizationError(
            f"{path}: norm {norm!r} deviates from 1 by more than {CUSTOM_NORM_ATOL}"
        )
    return StateVector(len(values).bit_length() - 1, amplitudes / norm)


def build(spec: StateSpec) -> StateVector:
    """Construct the state referenced by a spec."""
    if spec.kind == "ghz":
        return ghz()
    if spec.kind == "w":
        return w()
    if spec.kind == "singlet":
        return singlet()
    if spec.kind == "hardy":
        assert spec.angle is not None
        return hardy(spec.angle)
    assert spec.path is not None
    return load_custom(spec.path)
