"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import runner
import workloads
from scorechain import ledger, simnet
from tracing import Tracer, self_times

HERE = Path(__file__).resolve().parent
NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_is_correct_and_repeats(name):
    workload = workloads.get(name, tiny=True)
    first = runner.run_untraced(workload, seed=3, seconds=0)
    assert first.correct, [p for u in first.units for p in u.problems]
    assert first.failed == 0 and first.attempted >= workload.fingerprint_units
    assert [m for m, _ in runner.END_TO_END] == list(first.metrics)
    assert all(value > 0 for value in first.metrics.values()), first.metrics
    second = runner.run_untraced(workload, seed=3, seconds=0)
    assert runner.fingerprint(second) == runner.fingerprint(first)
    other = runner.run_untraced(workload, seed=4, seconds=0)
    assert runner.fingerprint(other) != runner.fingerprint(first)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_does_the_untraced_work(name):
    workload = workloads.get(name, tiny=True)
    result = runner.run_traced(workload, seed=5)
    assert result.correct, result.problems
    assert set(result.metrics) == {m for m, _ in layers.PER_LAYER}
    count = min(workload.fingerprint_units, runner.TRACED_UNITS)
    traced = result.units[count : 2 * count]
    untraced = runner.run_untraced(workload, seed=5, seconds=0).units
    assert [u.digest for u in traced] == [u.digest for u in untraced[:count]]
    assert result.metrics["ledger.apply_calls"] > 0
    assert result.metrics["ledger.bytes_per_block"] > 0
    if isinstance(workload, workloads.SimWorkload):
        assert result.metrics["simnet.sent.BlockGossip"] > 0
        assert result.metrics["simnet.delivered.BlockGossip"] > 0
    else:
        assert result.metrics["simnet.sent.BlockGossip"] == 0
    # every patch is undone
    for fn in (ledger.ChainState.apply_block, simnet.Simulator.send, simnet.mint_block, ledger.block_score):
        assert not hasattr(fn, "__wrapped__")


def test_self_time_on_hand_built_tree():
    #  root [0, 10]
    #    a [1, 4]         a1 [2, 3]
    #    b [5, 9]         b1 [6, 7], b2 [7.5, 9.5] runs past b: [7.5, 9] counts
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 7.5])
    end = np.array([10.0, 4.0, 3.0, 9.0, 7.0, 9.5])
    parent = np.array([-1, 0, 1, 0, 3, 3])
    assert self_times(start, end, parent).tolist() == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 2.0])


def test_wrapped_calls_nest_and_restore():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap_method(Box, "outer", "x.outer")
    tracer.wrap_method(Box, "inner", "x.inner")
    with tracer.span("bench.op"):
        assert Box().outer() == 2
    tracer.restore()
    assert not hasattr(Box.outer, "__wrapped__")
    arr = tracer.arrays()
    assert [tracer.names[i] for i in arr["name"]] == ["bench.op", "x.outer", "x.inner"]
    assert arr["parent"].tolist() == [-1, 0, 1]
    own = self_times(arr["start"], arr["end"], arr["parent"])
    assert (own >= 0).all() and own.sum() == pytest.approx(arr["end"][0] - arr["start"][0])


def test_delivered_counts_only_dispatched_handlers():
    tracer = Tracer()
    t = 0.0

    def add(name, parent, tag=0):
        nonlocal t
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.tag.append(tag)
        tracer.start.append(t)
        tracer.end.append(t + 1.0)
        t += 1.0
        return len(tracer.name) - 1

    witness_req = layers.MESSAGE_TYPES.index(simnet.WitnessReqMsg)
    block = layers.MESSAGE_TYPES.index(simnet.BlockGossip)
    run = add("simnet.run", -1)
    add("simnet.send", run, witness_req)
    add("simnet.send", run, witness_req)
    add("simnet.send", run, block)
    add("simnet.on_witness_request", run)
    handler = add("simnet.on_witness_sig", run)
    add("simnet.handle_block", handler)  # the proposer applying its own mint
    m = layers.summarize(tracer)
    assert m["simnet.sent.WitnessReqMsg"] == 2 and m["simnet.sent.BlockGossip"] == 1
    assert m["simnet.delivered.WitnessReqMsg"] == 1
    assert m["simnet.delivered.WitnessSigMsg"] == 1
    assert m["simnet.delivered.BlockGossip"] == 0
    assert m["simnet.dropped"] == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.get(entry["name"]).why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_utxo_ed25519", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
