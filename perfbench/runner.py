"""Run a workload untraced (end-to-end metrics) or traced (per-layer metrics)."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import layers
from tracing import Tracer
from workloads import UnitResult, Workload

END_TO_END: tuple[tuple[str, str], ...] = (
    ("blocks_per_s", "1/s"),
    ("tx_per_s", "1/s"),
    ("block_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
TRACED_UNITS = 4  # units a traced run covers, at most


@dataclass
class RunResult:
    metrics: dict[str, float]
    units: list[UnitResult]  # in order; the first ``fingerprint_units`` carry the fingerprint
    problems: list[str]
    fingerprint_units: int

    @property
    def attempted(self) -> int:
        return sum(u.attempted for u in self.units)

    @property
    def failed(self) -> int:
        return sum(u.failed for u in self.units)

    @property
    def correct(self) -> bool:
        return not self.problems and all(not u.problems for u in self.units)


def _unit(workload: Workload, seed: int, index: int, **kwargs) -> UnitResult:
    result = workload.unit(seed, index, **kwargs)
    gc.collect()  # drop the unit's simulator cycles before the next one
    return result


def _blocks_per_s(units: list[UnitResult]) -> float:
    return sum(u.blocks for u in units) / sum(u.run_s for u in units)


def run_untraced(workload: Workload, seed: int, seconds: float) -> RunResult:
    """Distinct units until ``seconds`` have passed, and at least the first
    ``fingerprint_units``, which do the same work on every run of one seed.

    The rates are totals over all units. One untimed unit runs first, so that
    lazy imports and first-call set-up stay out of the timed ones.
    """
    _unit(workload, seed, 0)
    units: list[UnitResult] = []
    deadline = time.perf_counter() + seconds
    while len(units) < workload.fingerprint_units or time.perf_counter() < deadline:
        units.append(_unit(workload, seed, len(units)))
    latencies_ms = np.array([lat for u in units for lat in u.latencies]) * 1e3
    run_s = sum(u.run_s for u in units)
    blocks = sum(u.blocks for u in units)
    # blocks of a simulation overlap, so each one is given the run's mean
    # host time per block; the pipeline times every block on its own
    if latencies_ms.size:
        block_ms = np.percentile(latencies_ms, 50)
    else:
        block_ms = 1e3 * run_s / blocks if blocks else 0.0
    metrics = {
        "blocks_per_s": blocks / run_s,
        "tx_per_s": sum(u.txs for u in units) / run_s,
        "block_ms_p50": float(block_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(u.setup_s for u in units),
    }
    return RunResult(metrics, units, [], workload.fingerprint_units)


def run_traced(
    workload: Workload, seed: int, spans_path: "str | None" = None
) -> RunResult:
    """The first units untraced, then traced, then once under tracemalloc.

    The traced units are fixed, so their counts repeat exactly for one seed.
    The untraced pass gives the tracing overhead and the work the traced
    pass must reproduce.
    """
    count = min(workload.fingerprint_units, TRACED_UNITS)
    plain = [_unit(workload, seed, i) for i in range(count)]
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        traced = [_unit(workload, seed, i, tracer=tracer) for i in range(count)]
    finally:
        tracer.restore()
    memory = _unit(workload, seed, 0, memory=True)

    problems = []
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.digest != b.digest:
            problems.append(f"unit {i}: traced digest {b.digest} != untraced {a.digest}")
    if memory.digest != plain[0].digest:
        problems.append("unit 0: tracemalloc digest differs from untraced")

    metrics = layers.summarize(tracer)
    untraced_rate, traced_rate = _blocks_per_s(plain), _blocks_per_s(traced)
    metrics["ledger.snapshots"] = sum(u.snapshots for u in traced)
    metrics["ledger.bytes_per_block"] = memory.bytes_per_block
    metrics["trace.untraced_blocks_per_s"] = untraced_rate
    metrics["trace.traced_blocks_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = 1 - traced_rate / untraced_rate if untraced_rate else 0.0
    if spans_path is not None:
        tracer.write(spans_path)
    return RunResult(metrics, plain + traced + [memory], problems, count)


def fingerprint(result: RunResult) -> dict:
    """Simulated work of the fingerprint units: summed counters and digests."""
    totals: dict[str, int] = {}
    for unit in result.units[: result.fingerprint_units]:
        for key, value in unit.counters.items():
            totals[key] = totals.get(key, 0) + value
    digests = [u.digest for u in result.units[: result.fingerprint_units]]
    return {"units": result.fingerprint_units, "totals": totals, "digests": digests}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "numpy": np.__version__,
        "cryptography": metadata.version("cryptography"),
        "commit": _git_commit(root),
        "platform": sys.platform,
        "excluded": "run_trials(jobs>1): on 2 shared cores it would measure the scheduler",
    }
