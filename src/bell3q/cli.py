"""Command line interface.

Subcommands: ``states`` (catalog and amplitude listings), ``eval`` (quantum
value of an expression against its exact classical range), ``bounds``
(exhaustive classical bounds with witnesses), ``argue`` (logical argument
chains), ``optimize`` (angle search, certification and the Hardy search).

Exit codes: 0 success, 2 configuration error, 3 numeric contract violation,
4 evaluation budget or enumeration size refusal.  JSON output carries a
``config`` block echoing the resolved inputs so every run is reproducible;
floats are serialized with 12 significant digits, and a payload holding a
NaN or an infinity is refused with exit 3 in every output format.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Any

from . import optimize as optimize_mod
from . import states as states_mod
from .argument import run_hardy_argument, run_w_argument
from .errors import (
    BudgetExceededError,
    ConfigError,
    ContractViolationError,
)
from .expressions import (
    CATALOG_NOTES,
    REFERENCE_BOUNDS,
    Binding,
    CorrelatorTerm,
    catalog_ids,
    evaluate_report,
    format_term,
    resolve_expression,
)
from .lhv import classical_bounds
from .qcore import (
    DensityMatrix,
    Observable,
    concurrence,
    outcome_tuples,
    partial_trace,
)


def _round_floats(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def _flatten(prefix: str, value: Any, rows: list[tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), item, rows)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(f"{prefix}[{index}]", item, rows)
    else:
        rows.append((prefix, value))


def _render_csv(payload: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    terms = payload.get("result", {}).get("terms")
    if terms is not None:
        writer.writerow(["record", "index", "coefficient", "detail", "value"])
        for term in terms:
            writer.writerow(
                ["term", term["index"], f"{term['coefficient']:.12g}", term["detail"], f"{term['value']:.12g}"]
            )
        for key in ("quantum_value", "classical_lower", "classical_upper", "violated", "margin"):
            writer.writerow([key, "", "", "", _round_floats(payload["result"][key])])
        return buffer.getvalue()
    rows: list[tuple[str, Any]] = []
    _flatten("", _round_floats(payload["result"]), rows)
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, value])
    return buffer.getvalue()


def _format_number(value: float) -> str:
    return f"{value:.9g}"


def _render_text(payload: dict) -> str:
    command = payload["command"]
    result = payload["result"]
    lines: list[str] = []
    if command == "argue":
        lines.append(f"argument chain on {result['state']} ({result['structure']})")
        rows = [
            ("p1 (the opening event)", result["p1"]),
            ("p2 (first conditional family)", result["p2"]),
            ("p3 (second conditional family)", result["p3"]),
            ("p4 (the closing event)", result["p4"]),
        ]
        for label, value in rows:
            shown = "vacuous" if value is None else _format_number(value)
            lines.append(f"  {label:<34} {shown}")
        for check in result["conditionals"]:
            shown = "vacuous" if check["probability"] is None else _format_number(check["probability"])
            lines.append(f"    {check['description']:<32} {shown}")
        lines.append(f"  checks passed: {result['checks_passed']}")
        lines.append(f"  unexplained fraction: {_format_number(result['unexplained_fraction'])}")
        if result.get("ch_middle") is not None:
            lines.append(f"  ch middle term: {_format_number(result['ch_middle'])}")
        return "\n".join(lines) + "\n"
    rows = []
    _flatten("", _round_floats(result), rows)
    width = max((len(key) for key, _ in rows), default=0)
    for key, value in rows:
        lines.append(f"{key:<{width}}  {value}")
    return "\n".join(lines) + "\n"


def _render(payload: dict, out: str) -> str:
    """Render a payload in the chosen format; a NaN or infinity anywhere in
    it is a contract violation, whatever the format."""
    try:
        text = json.dumps(_round_floats(payload), indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ContractViolationError(f"non-finite value in the output: {exc}") from exc
    if out == "csv":
        return _render_csv(payload)
    if out == "text":
        return _render_text(payload)
    return text


def _write(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``bell3q states | head -1``); point
        # stdout at devnull so the flush at exit stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


_AXIS_OBSERVABLES = {
    "z": Observable.z,
    "x": Observable.x,
    "y": Observable.y,
}


def _parse_observable(text: str) -> Observable:
    if text in _AXIS_OBSERVABLES:
        return _AXIS_OBSERVABLES[text]()
    if text.startswith("angle:"):
        try:
            return Observable.xz_plane(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad angle in {text!r}") from exc
    raise ConfigError(f"unknown observable {text!r}; use z, x, y or angle:<rad>")


def _parse_binding(spec: str, scheme) -> Binding:
    """Parse ``A=z,B=x`` with per-qubit overrides such as ``q2:B=angle:1.154``."""
    by_label: dict[str, Observable] = {}
    overrides: dict[tuple[int, str], Observable] = {}
    for entry in filter(None, (part.strip() for part in spec.split(","))):
        target, _, observable_text = entry.partition("=")
        if not observable_text:
            raise ConfigError(f"binding entry {entry!r} needs label=observable")
        qubit_text, _, label = target.partition(":") if ":" in target else ("", "", target)
        if qubit_text and not (qubit_text.startswith("q") and qubit_text[1:].isdigit()):
            raise ConfigError(f"bad qubit in {entry!r}")
        observable = _parse_observable(observable_text)
        if qubit_text:
            overrides[(int(qubit_text[1:]), label)] = observable
        else:
            by_label[label] = observable
    return Binding.uniform(scheme, by_label, overrides)


def _ket(outcomes: tuple[int, ...]) -> str:
    return "".join("+" if v == 1 else "-" for v in outcomes)


def _cmd_states(args: argparse.Namespace) -> dict:
    if args.state is None:
        result = {
            "catalog": [
                {"name": name, "description": description}
                for name, description in states_mod.CATALOG_DESCRIPTIONS.items()
            ],
            "expressions": list(catalog_ids()),
        }
        config = {"state": None}
    else:
        spec = states_mod.StateSpec.parse(args.state)
        state = states_mod.build(spec)
        amplitudes = [
            {
                "index": index,
                "ket": _ket(outcomes),
                "re": float(state.amplitudes[index].real),
                "im": float(state.amplitudes[index].imag),
            }
            for index, outcomes in enumerate(outcome_tuples(state.num_qubits))
        ]
        result = {
            "state": spec.describe(),
            "num_qubits": state.num_qubits,
            "amplitudes": amplitudes,
        }
        if state.num_qubits == 3:
            result["pair_concurrences"] = {
                f"traced_q{q}": concurrence(partial_trace(state, q)) for q in (1, 2, 3)
            }
        else:
            rho = DensityMatrix(
                [[a * b.conjugate() for b in state.amplitudes] for a in state.amplitudes]
            )
            result["concurrence"] = concurrence(rho)
        config = {"state": spec.describe()}
    return {"command": "states", "config": config, "result": result}


def _term_rows(breakdown) -> list[dict]:
    return [
        {
            "index": index,
            "coefficient": term.coefficient,
            "kind": "CORR" if isinstance(term.payload, CorrelatorTerm) else "PROB",
            "detail": format_term(term),
            "value": value,
        }
        for index, (term, value) in enumerate(breakdown)
    ]


def _cmd_eval(args: argparse.Namespace) -> dict:
    spec = states_mod.StateSpec.parse(args.state)
    state = states_mod.build(spec)
    expression = resolve_expression(args.expr)
    binding = _parse_binding(args.bind, expression.scheme)
    report = evaluate_report(expression, state, binding, tolerance=args.tol)
    result = report.as_dict()
    result["terms"] = _term_rows(report.terms)
    return {
        "command": "eval",
        "config": {
            "state": spec.describe(),
            "expr": args.expr,
            "bind": args.bind,
            "tol": args.tol,
        },
        "result": result,
    }


def _cmd_bounds(args: argparse.Namespace) -> dict:
    expression = resolve_expression(args.expr)
    bounds = classical_bounds(expression)
    reference = REFERENCE_BOUNDS.get(expression.name)
    warning = None
    if reference is not None and (bounds.lower, bounds.upper) != reference:
        warning = (
            f"enumerated bounds ({bounds.lower:g}, {bounds.upper:g}) differ from "
            f"the canonical range ({reference[0]:g}, {reference[1]:g})"
        )
    result = {
        "expression": expression.name,
        "classical_lower": bounds.lower,
        "classical_upper": bounds.upper,
        "strategy_count": bounds.strategy_count,
        "minimizer": bounds.minimizer.as_dict(),
        "maximizer": bounds.maximizer.as_dict(),
        "note": CATALOG_NOTES.get(expression.name),
        "warning": warning,
    }
    return {
        "command": "bounds",
        "config": {"expr": args.expr},
        "result": result,
    }


def _cmd_argue(args: argparse.Namespace) -> dict:
    spec = states_mod.StateSpec.parse(args.state)
    state = states_mod.build(spec)
    if state.num_qubits == 3:
        if args.angles is not None:
            raise ConfigError("--angles applies only to two-qubit states")
        report = run_w_argument(state, state_name=spec.describe(), atol=args.tol)
    else:
        if args.angles is None:
            raise ConfigError(
                "two-qubit arguments need --angles a1,b1,a2,b2 (radians in the x-z plane)"
            )
        parts = [part for part in args.angles.split(",") if part.strip()]
        if len(parts) != 4:
            raise ConfigError(f"--angles needs four values, got {len(parts)}")
        try:
            a1, b1, a2, b2 = (float(part) for part in parts)
        except ValueError as exc:
            raise ConfigError(f"bad angle in {args.angles!r}") from exc
        report = run_hardy_argument(
            state,
            Observable.xz_plane(a1),
            Observable.xz_plane(b1),
            Observable.xz_plane(a2),
            Observable.xz_plane(b2),
            state_name=spec.describe(),
            atol=args.tol,
        )
    return {
        "command": "argue",
        "config": {
            "state": spec.describe(),
            "angles": args.angles,
            "tol": args.tol,
        },
        "result": report.as_dict(),
    }


def _cmd_optimize(args: argparse.Namespace) -> dict:
    if args.hardy_search:
        angle_search = {
            "--state": args.state,
            "--expr": args.expr,
            "--mode": args.mode,
            "--grid-step": args.grid_step,
            "--budget": args.budget,
            "--certify-below": args.certify_below,
        }
        given = [flag for flag, value in angle_search.items() if value is not None]
        if given:
            raise ConfigError(f"--hardy-search does not take {', '.join(given)}")
    elif args.state_angle is not None:
        raise ConfigError("--state-angle applies only to --hardy-search")
    mode = "symmetric" if args.mode is None else args.mode
    budget = optimize_mod.DEFAULT_BUDGET if args.budget is None else args.budget
    config = {
        "state": args.state,
        "expr": args.expr,
        "mode": mode,
        "grid_step": args.grid_step,
        "budget": budget,
        "certify_below": args.certify_below,
        "hardy_search": args.hardy_search,
        "state_angle": args.state_angle,
    }
    if args.hardy_search:
        optimum = optimize_mod.hardy_maximum(state_angle=args.state_angle)
        return {"command": "optimize", "config": config, "result": optimum.as_dict()}
    if args.state is None or args.expr is None:
        raise ConfigError("optimize needs --state and --expr (or --hardy-search)")
    spec = states_mod.StateSpec.parse(args.state)
    state = states_mod.build(spec)
    expression = resolve_expression(args.expr)
    config["state"] = spec.describe()
    if args.certify_below is not None:
        certification = optimize_mod.certify_below(
            expression,
            state,
            args.certify_below,
            mode,
            grid_step=args.grid_step,
            budget=budget,
        )
        return {"command": "optimize", "config": config, "result": certification.as_dict()}
    result = optimize_mod.maximize(
        expression,
        state,
        mode,
        grid_step=args.grid_step,
        budget=budget,
    )
    return {"command": "optimize", "config": config, "result": result.as_dict()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bell3q",
        description="Bell tests for two and three qubits: exact classical bounds, "
        "quantum values, logical arguments and angle optimization.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", choices=("json", "csv", "text"), default="json", help="output format"
    )
    tolerant = argparse.ArgumentParser(add_help=False, parents=[common])
    tolerant.add_argument(
        "--tol", type=_tolerance, default=1e-9, help="comparison tolerance (default 1e-9)"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    states_parser = subparsers.add_parser(
        "states", parents=[common], help="list the state catalog or print amplitudes"
    )
    states_parser.add_argument(
        "--state", help="ghz | w | singlet | hardy:<rad> | file:<path>"
    )
    states_parser.set_defaults(handler=_cmd_states)

    eval_parser = subparsers.add_parser(
        "eval", parents=[tolerant], help="quantum value against exact classical bounds"
    )
    eval_parser.add_argument("--state", required=True)
    eval_parser.add_argument(
        "--expr", required=True, help=f"catalog id ({', '.join(catalog_ids())}) or file:<path>"
    )
    eval_parser.add_argument(
        "--bind",
        required=True,
        help="label=observable pairs, e.g. A=z,B=x or q2:B=angle:1.154; "
        "every entry must name a label of the expression",
    )
    eval_parser.set_defaults(handler=_cmd_eval)

    bounds_parser = subparsers.add_parser(
        "bounds", parents=[common], help="exhaustive classical bounds with witnesses"
    )
    bounds_parser.add_argument("--expr", required=True)
    bounds_parser.set_defaults(handler=_cmd_bounds)

    argue_parser = subparsers.add_parser(
        "argue", parents=[tolerant], help="run a logical argument chain"
    )
    argue_parser.add_argument("--state", required=True)
    argue_parser.add_argument(
        "--angles", help="a1,b1,a2,b2 angles for two-qubit chains (radians)"
    )
    argue_parser.set_defaults(handler=_cmd_argue)

    optimize_parser = subparsers.add_parser(
        "optimize", parents=[common], help="maximize over x-z plane angles"
    )
    optimize_parser.add_argument("--state")
    optimize_parser.add_argument("--expr")
    optimize_parser.add_argument(
        "--mode", choices=("symmetric", "free"), help="default symmetric"
    )
    optimize_parser.add_argument("--grid-step", type=float, default=None)
    optimize_parser.add_argument(
        "--budget", type=int, help=f"grid points allowed (default {optimize_mod.DEFAULT_BUDGET})"
    )
    optimize_parser.add_argument(
        "--certify-below",
        type=_finite,
        default=None,
        help="check that the grid-plus-refinement maximum stays below a bound "
        "(a heuristic check, not a proof)",
    )
    optimize_parser.add_argument(
        "--hardy-search",
        action="store_true",
        help="maximize the sometimes-always-never chain over state and observables, "
        "in closed form; takes only --state-angle",
    )
    optimize_parser.add_argument(
        "--state-angle", type=float, default=None, help="fix the state angle of --hardy-search"
    )
    optimize_parser.set_defaults(handler=_cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = _render(args.handler(args), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
