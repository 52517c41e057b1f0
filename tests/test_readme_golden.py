"""Golden outputs of the command lines in the README's "Command line" section.

Each command runs in-process through ``cli.main`` and its stdout is compared
with ``tests/golden/NN-<subcommand>.out``.  Structure, keys, strings, ints
and bools must match exactly.  Floats, including those inside CSV and text
output, must agree at 12 significant digits or within 1e-15 absolutely, so
that rounding residues of an equivalent evaluation order still pass.  The
exact classical bounds, witnesses and strategy counts of ``bounds`` must be
unchanged exactly.

``PYTHONPATH=src python tests/test_readme_golden.py`` rewrites the goldens
that are missing or fail this comparison, and prints their names.
"""
import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from bell3q.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
ABS_TOL = 1e-15
_NUMBER = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def readme_commands() -> list[list[str]]:
    """The ``bell3q ...`` lines of the README's "Command line" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = []
    for line in section.splitlines():
        if line.startswith("bell3q "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def golden_path(index: int, argv: list[str]) -> Path:
    return GOLDEN / f"{index + 1:02d}-{argv[0]}.out"


def run(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    return code, stdout.getvalue()


def floats_agree(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= ABS_TOL or f"{a:.12g}" == f"{b:.12g}"


def assert_json_matches(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {got!r} is not a {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_json_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for index, (g, w) in enumerate(zip(got, want)):
            assert_json_matches(g, w, f"{where}[{index}]")
    elif isinstance(want, float):
        assert floats_agree(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def assert_text_matches(got: str, want: str):
    """Non-numeric text exactly; integer tokens exactly; other numbers by the
    float rule."""
    got_numbers, want_numbers = _NUMBER.findall(got), _NUMBER.findall(want)
    assert _NUMBER.split(got) == _NUMBER.split(want)
    assert len(got_numbers) == len(want_numbers)
    for g, w in zip(got_numbers, want_numbers):
        if re.fullmatch(r"-?\d+", g) and re.fullmatch(r"-?\d+", w):
            assert int(g) == int(w), f"{g} != {w}"
        else:
            assert floats_agree(float(g), float(w)), f"{g} != {w}"


def test_readme_lists_twelve_commands():
    commands = readme_commands()
    assert len(commands) == 12
    assert sorted(p.name for p in GOLDEN.glob("*.out")) == sorted(
        golden_path(i, argv).name for i, argv in enumerate(commands)
    )


def assert_matches_golden(argv: list[str], out: str, want: str):
    """A command's output against its golden text, by the rules above."""
    if "--out" in argv:
        assert_text_matches(out, want)
        return
    got_payload = json.loads(out, parse_constant=_reject)
    want_payload = json.loads(want)
    assert_json_matches(got_payload, want_payload)
    if argv[0] == "bounds":
        for key in ("classical_lower", "classical_upper", "minimizer", "maximizer"):
            assert got_payload["result"][key] == want_payload["result"][key], key
        assert got_payload["result"]["strategy_count"] == want_payload["result"]["strategy_count"]


@pytest.mark.parametrize(
    "index, argv",
    list(enumerate(readme_commands())),
    ids=[" ".join(argv) for argv in readme_commands()],
)
def test_readme_command_matches_golden(index, argv):
    code, out = run(argv)
    assert code == 0
    assert_matches_golden(argv, out, golden_path(index, argv).read_text())


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def test_float_rule():
    assert floats_agree(1.13973994993e-10, 1.13973969151e-10)
    assert floats_agree(3.9e-34, 0.0)
    assert floats_agree(3.04595609062, 3.045956090620001)
    assert not floats_agree(3.04595609062, 3.04595609063)
    assert not floats_agree(math.inf, 1e308)
    assert_text_matches("p1 = 0.25, q1:A", "p1 = 0.25000000000001, q1:A")
    with pytest.raises(AssertionError):
        assert_text_matches("strategy_count,64", "strategy_count,65")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for index, argv in enumerate(readme_commands()):
        code, out = run(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        path = golden_path(index, argv)
        try:
            assert_matches_golden(argv, out, path.read_text())
        except (FileNotFoundError, AssertionError):
            path.write_text(out)
            print(path.relative_to(ROOT))
