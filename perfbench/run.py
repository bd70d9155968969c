"""Benchmark one scorechain workload and print its metrics.

Run from the repository root; the library is imported from ``src/``:

    python3 perfbench/run.py --workload ledger_100k --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the first few units untraced, again under span tracing and
once under tracemalloc, and prints the per-layer metrics; its spans go to
``perfbench/out/<workload>.spans.npz``.
Workloads, their shapes and the reasons for them are in ``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the simulated-work fingerprint and ``fail_ratio``.

Tests of the benchmark itself:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def use_repo_source() -> None:
    """Import scorechain from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "scorechain" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no scorechain sources under {src}")
    sys.path.insert(0, str(src))


def main(argv: "list[str] | None" = None) -> int:
    use_repo_source()
    import layers
    import runner
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    workload = workloads.get(args.workload)
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("why " + workload.why)
    print("env " + json.dumps(runner.environment(ROOT), sort_keys=True))
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        result = runner.run_traced(workload, args.seed, str(out_dir / f"{workload.name}.spans.npz"))
        metric_units = dict(layers.PER_LAYER)
    else:
        result = runner.run_untraced(workload, args.seed, args.seconds)
        metric_units = dict(runner.END_TO_END)

    print("fingerprint " + json.dumps(runner.fingerprint(result), sort_keys=True))
    for problem in result.problems + [p for u in result.units for p in u.problems]:
        print("problem " + problem.strip().replace("\n", " | "))
    print(
        f"fail_ratio {result.failed / result.attempted:.6f} ratio "
        f"(failed {result.failed} / attempted {result.attempted})"
    )
    metrics = {}
    for name, unit in metric_units.items():
        value = result.metrics[name]
        print(f"metric {name} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
