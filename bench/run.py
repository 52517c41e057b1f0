"""Benchmark of bell3q: one workload per invocation, outputs checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {evaluate,enumerate,optimize,cli} \
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2.  One closed-loop caller issues one operation
at a time, in whole passes over the workload's inputs, until the pass
boundary nearest to ``--seconds`` of timed operations, and at least the
workload's minimum number of passes (from which its tail percentile
follows).  Fresh-interpreter set-up launches are spread through the run,
outside the timed region.  After the
loop every output is checked against ``reference.py``.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracing.py`` with ``--trace 1``.  A fuller record
goes to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_LAUNCHES = 10  # timed launches per run, after one warm-up launch


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("evaluate", "enumerate", "optimize", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    src = ROOT / "src"
    if not (src / "bell3q" / "__init__.py").is_file():
        _fail(f"no bell3q sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import bell3q

    if Path(bell3q.__file__).resolve().parent != (src / "bell3q").resolve():
        _fail(f"imported bell3q from {bell3q.__file__}, not from {src}")
    return bell3q


def _percentile(values, p):
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _timing(workload, keys, latencies, timed) -> dict:
    by_slot: dict[str, list[float]] = {}
    for key, elapsed in zip(keys, latencies):
        by_slot.setdefault(workload.slot(key), []).append(elapsed)
    # The median over a pass's operations of each one's median over the
    # passes: the median of the raw samples flips with the machine's slow
    # phases and with preemption spikes on sub-millisecond operations.
    p50 = statistics.median(statistics.median(v) for v in by_slot.values())
    return {
        "ops_per_s": {"value": len(latencies) / timed, "unit": "1/s"},
        "latency_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": _percentile(latencies, workload.tail_percentile) * 1e3, "unit": "ms"},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    bell3q = _import_program()
    sys.path.insert(0, str(BENCH))
    import tracing
    from workloads import WORKLOADS

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workload = WORKLOADS[args.workload](ROOT, args.seed, bell3q)
    tracer = None
    launches_ms = {}
    if args.trace:
        import bell3q.cli  # noqa: F401  (cli.main is traced in process)

        module = "bell3q.cli" if args.workload == "cli" else "bell3q"
        launches_ms = tracing.launch_metrics(env, ROOT, module)
        tracer = tracing.Tracer()
        missing = tracer.install()
        if missing:
            print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
        workload.in_process = True

    planned = 0 if args.trace else SETUP_LAUNCHES + 1
    setup_s: list[float] = []

    def launch():
        start = time.perf_counter()
        # No timeout: with one, subprocess.run polls for the child's exit,
        # sleeping up to 50 ms between checks, so the time measured would
        # end at the next check; without, it blocks in waitpid.
        subprocess.run(
            [sys.executable, *workload.launch], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        setup_s.append(time.perf_counter() - start)

    latencies: list[float] = []
    keys: list[str] = []
    first: dict = {}  # key -> plain form of its first result
    differs: set[str] = set()
    pass_seconds: list[float] = []
    timed = 0.0
    passes = 0
    try:
        # Stop at the pass boundary nearest to --seconds: a pass of
        # enumerate takes several seconds, and always finishing the pass
        # that crosses the mark would lengthen every run by half a pass.
        while passes < workload.min_passes or timed + timed / max(passes, 1) / 2 < args.seconds:
            ops = workload.ops(passes)
            pass_start = timed
            for key, call in ops:
                while len(setup_s) < planned and timed >= len(setup_s) * args.seconds / planned:
                    launch()
                start = time.perf_counter()
                try:
                    result = call()
                except Exception as exc:  # a raising operation is a failed one
                    result = exc
                elapsed = time.perf_counter() - start
                timed += elapsed
                latencies.append(elapsed)
                keys.append(key)
                # Keep only a plain form of the result, so the heap (and the
                # collector's work inside later operations) does not grow.
                plain = result if isinstance(result, Exception) else workload.plain(key, result)
                if key not in first:
                    first[key] = plain
                elif plain != first[key]:
                    differs.add(key)
                del result
            pass_seconds.append(timed - pass_start)
            passes += 1
        while len(setup_s) < planned:
            launch()
        timing = _timing(workload, keys, latencies, timed)
        if tracer is not None:
            metrics = tracer.metrics(passes, launches_ms)
        else:
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            metrics = {
                "setup_s": {"value": statistics.median(setup_s[1:]), "unit": "s"},
                **timing,
                "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
            }

        # Checking, outside the timed region.
        failures = {}
        for key, plain in first.items():
            if isinstance(plain, Exception):
                failures[key] = f"raised {plain!r}"
            else:
                reason = workload.check(key, plain)
                if reason is None and key in differs:
                    reason = "output differs between passes"
                if reason is not None:
                    failures[key] = reason
        failed = sum(1 for key in keys if key in failures)
        problems = workload.extra_checks()
    finally:
        workload.close()

    unexpected = {k: v for k, v in failures.items() if k not in workload.known_faults}
    correct = not unexpected and not problems
    for key, reason in failures.items():
        label = "expected fault" if key in workload.known_faults else "WRONG"
        print(f"{label}: {key}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)

    by_key: dict[str, list[float]] = {}
    for key, elapsed in zip(keys, latencies):
        by_key.setdefault(key, []).append(elapsed)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(latencies) // passes,
        "samples": len(latencies),
        "tail_percentile": workload.tail_percentile,
        "timed_s": timed,
        "pass_seconds": pass_seconds,
        "setup_s_samples": setup_s,
        "latencies_by_key": by_key,
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "timing": timing,
        "environment": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2))

    print(json.dumps({"correct": correct, "attempted": len(latencies), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
