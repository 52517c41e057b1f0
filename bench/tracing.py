"""Per-layer self time and counts, recorded from outside the package.

Each layer is a group of public functions.  ``install`` replaces every
binding of those functions in the loaded ``bell3q`` modules (each name where
its caller looks it up) with a wrapper that opens a span when the call
enters the group from outside it.  A span's self time is its duration minus
the spans opened inside it.  Spans are folded into totals as they close.
A function that no longer exists is skipped, so its metrics read 0.
"""
from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# group -> (module, attribute names); "Class.method" names wrap a method.
GROUPS = {
    "states.build": ("bell3q.states", ("build", "ghz", "w", "singlet", "hardy", "load_custom")),
    "qcore.outcome_probability": ("bell3q.qcore", ("outcome_probability",)),
    "qcore.event_probability": ("bell3q.qcore", ("event_probability",)),
    "qcore.correlator": ("bell3q.qcore", ("correlator",)),
    "expressions.quantum_value": ("bell3q.expressions", ("quantum_value", "term_breakdown", "term_value")),
    "expressions.evaluate_report": ("bell3q.expressions", ("evaluate_report",)),
    "expressions.parse": (
        "bell3q.expressions",
        ("parse_expression_text", "parse_expression_file", "resolve_expression"),
    ),
    "lhv.classical_bounds": ("bell3q.lhv", ("classical_bounds",)),
    "argument.chain": ("bell3q.argument", ("run_w_argument", "run_hardy_argument")),
    "optimize.objective_build": ("bell3q.optimize", ("PlaneObjective.__init__",)),
    "optimize.grid": ("bell3q.optimize", ("PlaneObjective.grid_values",)),
    "optimize.point_eval": ("bell3q.optimize", ("PlaneObjective.value",)),
    "optimize.search": ("bell3q.optimize", ("maximize", "certify_below")),
    "optimize.hardy": ("bell3q.optimize", ("hardy_maximum",)),
    "cli.command": ("bell3q.cli", ("main",)),
}


def _evaluations(result) -> int:
    maximum = getattr(result, "maximum", result)
    return int(getattr(maximum, "evaluations", 0))


# Counts taken from what a span's outermost call returned or built.
COUNTERS = {
    "lhv.classical_bounds": lambda args, result: {"lhv.strategies": result.strategy_count},
    "optimize.objective_build": lambda args, result: {"optimize.atoms": len(getattr(args[0], "atoms", ()))},
    "optimize.grid": lambda args, result: {"optimize.grid_points": int(result.size)},
    "optimize.search": lambda args, result: {"optimize.evaluations": _evaluations(result)},
    "optimize.hardy": lambda args, result: {"optimize.evaluations": _evaluations(result)},
}

# Per-layer metric name -> (kind, group or counter).
PER_LAYER = {
    "states.build_ms": ("ms", "states.build"),
    "states.build_calls": ("calls", "states.build"),
    "qcore.outcome_probability_ms": ("ms", "qcore.outcome_probability"),
    "qcore.outcome_probability_calls": ("calls", "qcore.outcome_probability"),
    "qcore.event_probability_ms": ("ms", "qcore.event_probability"),
    "qcore.event_probability_calls": ("calls", "qcore.event_probability"),
    "qcore.correlator_ms": ("ms", "qcore.correlator"),
    "qcore.correlator_calls": ("calls", "qcore.correlator"),
    "expressions.quantum_value_ms": ("ms", "expressions.quantum_value"),
    "expressions.quantum_value_calls": ("calls", "expressions.quantum_value"),
    "expressions.evaluate_report_ms": ("ms", "expressions.evaluate_report"),
    "expressions.evaluate_report_calls": ("calls", "expressions.evaluate_report"),
    "expressions.parse_ms": ("ms", "expressions.parse"),
    "expressions.parse_calls": ("calls", "expressions.parse"),
    "lhv.classical_bounds_ms": ("ms", "lhv.classical_bounds"),
    "lhv.classical_bounds_calls": ("calls", "lhv.classical_bounds"),
    "lhv.strategies": ("count", "lhv.strategies"),
    "argument.chain_ms": ("ms", "argument.chain"),
    "argument.chain_calls": ("calls", "argument.chain"),
    "optimize.objective_build_ms": ("ms", "optimize.objective_build"),
    "optimize.objective_builds": ("calls", "optimize.objective_build"),
    "optimize.atoms": ("count", "optimize.atoms"),
    "optimize.grid_ms": ("ms", "optimize.grid"),
    "optimize.grid_points": ("count", "optimize.grid_points"),
    "optimize.point_eval_ms": ("ms", "optimize.point_eval"),
    "optimize.point_evals": ("calls", "optimize.point_eval"),
    "optimize.search_ms": ("ms", "optimize.search"),
    "optimize.evaluations": ("count", "optimize.evaluations"),
    "optimize.hardy_ms": ("ms", "optimize.hardy"),
    "cli.interpreter_ms": ("launch", "interpreter"),
    "cli.import_numpy_ms": ("launch", "import_numpy"),
    "cli.import_ms": ("launch", "import"),
    "cli.command_ms": ("ms", "cli.command"),
}


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.stack: list[list] = []  # [group, seconds spent in child spans]

    def wrap(self, group: str, fn):
        counter = COUNTERS.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.seconds[group] += elapsed - frame[1]
                self.calls[group] += 1
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                for name, value in counter(args, result).items():
                    self.counts[name] += value
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every group's functions; returns the names not found."""
        missing = []
        modules = {name: m for name, m in sys.modules.items() if name == "bell3q" or name.startswith("bell3q.")}
        for group, (module_name, names) in GROUPS.items():
            module = modules.get(module_name)
            for name in names:
                class_name, _, attr = name.rpartition(".")
                if class_name:
                    cls = getattr(module, class_name, None)
                    fn = vars(cls).get(attr) if cls is not None else None
                    if fn is None:
                        missing.append(f"{module_name}.{name}")
                    else:
                        setattr(cls, attr, self.wrap(group, fn))
                    continue
                fn = getattr(module, name, None)
                if fn is None:
                    missing.append(f"{module_name}.{name}")
                    continue
                wrapper = self.wrap(group, fn)
                for m in modules.values():
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
        return missing

    def metrics(self, passes: int, launches: dict) -> dict:
        out = {}
        for metric, (kind, key) in PER_LAYER.items():
            if kind == "ms":
                value, unit = self.seconds.get(key, 0.0) * 1e3 / passes, "ms"
            elif kind == "calls":
                value, unit = self.calls.get(key, 0) / passes, "count"
            elif kind == "count":
                value, unit = self.counts.get(key, 0) / passes, "count"
            else:
                value, unit = launches[key], "ms"
            out[metric] = {"value": value, "unit": unit}
        return out


def _import_times(stderr: str) -> tuple[float, float]:
    """numpy's cumulative import time and bell3q's own, in ms, from the
    ``-X importtime`` report (bell3q's own excludes the numpy it imports)."""
    numpy_us = package_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, raw = line.split("|")
        top_level = not raw[1:].startswith(" ")
        name = raw.strip()
        if name == "numpy":
            numpy_us = int(cumulative)
        elif top_level and (name == "bell3q" or name.startswith("bell3q.")):
            package_us += int(cumulative)
    return numpy_us / 1e3, (package_us - numpy_us) / 1e3


def launch_metrics(env: dict, cwd, module: str, launches: int = 5) -> dict:
    """Median interpreter start-up and import times over fresh launches."""
    interpreter, numpy_ms, import_ms = [], [], []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env, check=True)
        interpreter.append((time.perf_counter() - start) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {module}"],
            cwd=cwd, env=env, check=True, capture_output=True, text=True,
        )
        n, own = _import_times(proc.stderr)
        numpy_ms.append(n)
        import_ms.append(own)
    return {
        "interpreter": statistics.median(interpreter),
        "import_numpy": statistics.median(numpy_ms),
        "import": statistics.median(import_ms),
    }
