"""Which scorechain callables the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/scorechain``. Each wrapped callable gets a
span named ``<layer>.<callable>``; the benchmark's own spans are named
``bench.*`` and belong to no layer. ``analysis`` and ``cli`` are not traced:
the first has no workload, the second only wraps the library.
"""

from __future__ import annotations

import numpy as np

from scorechain import core_types, incentive, ledger, scoring, simnet, witness

from tracing import Tracer, self_times

MODULES = (core_types, scoring, witness, incentive, ledger, simnet)

MESSAGE_TYPES = (
    simnet.TxGossip,
    simnet.WitnessReqMsg,
    simnet.WitnessSigMsg,
    simnet.BlockGossip,
    simnet.ForkWinGossip,
    simnet.PullReq,
    simnet.PullReply,
)
_MESSAGE_CODE = {cls: code for code, cls in enumerate(MESSAGE_TYPES)}

# the HonestNode method the simulator's dispatch calls for each message type
HANDLER_OF = {
    "TxGossip": "accept_tx",
    "WitnessReqMsg": "on_witness_request",
    "WitnessSigMsg": "on_witness_sig",
    "BlockGossip": "handle_block",
    "ForkWinGossip": "on_fork_win",
    "PullReq": "on_pull_req",
    "PullReply": "on_pull_reply",
}
NODE_METHODS = tuple(HANDLER_OF.values()) + ("inject_tx", "on_propose_slot", "on_timeout")

STATUSES = tuple(ledger.ApplyStatus)
_STATUS_CODE = {status: code for code, status in enumerate(STATUSES)}
REFUSALS = tuple(witness.RefusalReason)
_REFUSAL_CODE = {reason: code + 1 for code, reason in enumerate(REFUSALS)}


def _apply_tag(result: ledger.ApplyResult) -> int:
    duplicate = result.reason is ledger.BlockReject.DUPLICATE
    return 2 * _STATUS_CODE[result.status] + duplicate


def _sign_tag(result: object) -> int:
    return _REFUSAL_CODE[result.reason] if isinstance(result, witness.Refusal) else 0


def _node_classes() -> list[type]:
    found, todo = [], [simnet.HonestNode]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def instrument(tracer: Tracer) -> None:
    """Wrap every traced callable; undo with ``tracer.restore()``."""
    chain, indices = ledger.ChainState, ledger.TxIndices
    tracer.wrap_method(chain, "apply_block", "ledger.apply_block", tag_result=_apply_tag)
    tracer.wrap_method(chain, "candidate_block_valid", "ledger.candidate_block_valid")
    tracer.wrap_method(chain, "best_score_at", "ledger.best_score_at")
    tracer.wrap_method(indices, "clone", "ledger.clone")
    tracer.wrap_method(indices, "validate_tx", "ledger.validate_tx")

    for scheme in (core_types.HashStubScheme, core_types.Ed25519Scheme):
        for attr in ("keypair", "sign", "verify"):
            tracer.wrap_method(scheme, attr, f"core_types.{attr}")
    tracer.wrap_method(core_types.Block, "__init__", "core_types.block_new")

    tracer.wrap_function(
        MODULES,
        scoring,
        "block_score",
        "scoring.block_score",
        tag_args=lambda args: args[0].score_cache is not None,
    )
    tracer.wrap_function(MODULES, witness, "propose_block", "witness.propose_block")
    tracer.wrap_function(
        MODULES, witness, "sign_witness", "witness.sign_witness", tag_result=_sign_tag
    )
    tracer.wrap_function(
        MODULES,
        witness,
        "mint_block",
        "witness.mint_block",
        tag_result=lambda block: block is not None,
    )
    tracer.wrap_function(MODULES, incentive, "build_coinbase", "incentive.build_coinbase")

    sim = simnet.Simulator
    tracer.wrap_method(sim, "run", "simnet.run")
    tracer.wrap_method(
        sim, "send", "simnet.send", tag_args=lambda args: _MESSAGE_CODE[type(args[3])]
    )
    tracer.wrap_method(sim, "broadcast", "simnet.broadcast")
    for cls in _node_classes():
        for attr in NODE_METHODS:
            tracer.wrap_method(cls, attr, f"simnet.{attr}")


PER_LAYER: tuple[tuple[str, str], ...] = (
    ("ledger.apply_calls", "count"),
    ("ledger.apply_s", "s"),
    *((f"ledger.apply.{s.value}", "count") for s in STATUSES),
    *((f"ledger.apply_s.{s.value}", "s") for s in STATUSES),
    ("ledger.duplicate_ratio", "ratio"),
    ("ledger.clone_calls", "count"),
    ("ledger.clone_s", "s"),
    ("ledger.validate_tx_calls", "count"),
    ("ledger.validate_tx_s", "s"),
    ("ledger.candidate_valid_calls", "count"),
    ("ledger.candidate_valid_s", "s"),
    ("ledger.best_score_calls", "count"),
    ("ledger.best_score_s", "s"),
    ("ledger.snapshots", "count"),
    ("ledger.bytes_per_block", "bytes"),
    ("ledger.self_s", "s"),
    ("core_types.verify_calls", "count"),
    ("core_types.verify_s", "s"),
    ("core_types.sign_calls", "count"),
    ("core_types.sign_s", "s"),
    ("core_types.block_new_calls", "count"),
    ("core_types.block_new_s", "s"),
    ("core_types.keypair_calls", "count"),
    ("core_types.keypair_s", "s"),
    ("core_types.self_s", "s"),
    ("scoring.block_score_calls", "count"),
    ("scoring.block_score_s", "s"),
    ("scoring.cache_hit_ratio", "ratio"),
    ("scoring.self_s", "s"),
    ("witness.propose_calls", "count"),
    ("witness.propose_s", "s"),
    ("witness.sign_calls", "count"),
    ("witness.sign_s", "s"),
    *((f"witness.refusals.{r.value}", "count") for r in REFUSALS),
    ("witness.mint_calls", "count"),
    ("witness.mint_s", "s"),
    ("witness.mint_ok_ratio", "ratio"),
    ("witness.self_s", "s"),
    ("incentive.coinbase_calls", "count"),
    ("incentive.coinbase_s", "s"),
    ("incentive.self_s", "s"),
    *((f"simnet.sent.{m.__name__}", "count") for m in MESSAGE_TYPES),
    *((f"simnet.delivered.{m.__name__}", "count") for m in MESSAGE_TYPES),
    ("simnet.dropped", "count"),
    ("simnet.send_s", "s"),
    ("simnet.self_s", "s"),
    ("simnet.node_self_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_blocks_per_s", "1/s"),
    ("trace.traced_blocks_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, inclusive times, outcome splits and self times.

    Returns every PER_LAYER name except the ones the caller measures itself
    (snapshots, bytes per block and the trace.* rates).
    """
    arr = tracer.arrays()
    names = tracer.names
    ids = {name: i for i, name in enumerate(names)}
    k = len(names)
    name, parent, tag = arr["name"], arr["parent"], arr["tag"]
    duration = arr["end"] - arr["start"]
    own = self_times(arr["start"], arr["end"], parent)
    calls = np.bincount(name, minlength=k)
    inclusive = np.bincount(name, weights=duration, minlength=k)
    self_by_name = np.bincount(name, weights=own, minlength=k)

    def count(span: str) -> int:
        return int(calls[ids[span]]) if span in ids else 0

    def seconds(span: str) -> float:
        return float(inclusive[ids[span]]) if span in ids else 0.0

    def split(span: str, size: int, key=lambda t: t) -> tuple[np.ndarray, np.ndarray]:
        if span not in ids:
            return np.zeros(size, dtype=np.int64), np.zeros(size)
        mask = name == ids[span]
        keys = key(tag[mask])
        return (
            np.bincount(keys, minlength=size),
            np.bincount(keys, weights=duration[mask], minlength=size),
        )

    def layer_self(layer: str) -> float:
        return float(sum(self_by_name[i] for n, i in ids.items() if n.startswith(layer + ".")))

    m: dict[str, float] = {}
    applies = count("ledger.apply_block")
    m["ledger.apply_calls"] = applies
    m["ledger.apply_s"] = seconds("ledger.apply_block")
    by_status, status_s = split("ledger.apply_block", len(STATUSES), key=lambda t: t // 2)
    for code, status in enumerate(STATUSES):
        m[f"ledger.apply.{status.value}"] = int(by_status[code])
        m[f"ledger.apply_s.{status.value}"] = float(status_s[code])
    duplicates, _ = split("ledger.apply_block", 2, key=lambda t: t % 2)
    m["ledger.duplicate_ratio"] = _ratio(int(duplicates[1]), applies)
    for metric, span in (
        ("clone", "ledger.clone"),
        ("validate_tx", "ledger.validate_tx"),
        ("candidate_valid", "ledger.candidate_block_valid"),
        ("best_score", "ledger.best_score_at"),
    ):
        m[f"ledger.{metric}_calls"] = count(span)
        m[f"ledger.{metric}_s"] = seconds(span)

    for metric in ("verify", "sign", "block_new", "keypair"):
        m[f"core_types.{metric}_calls"] = count(f"core_types.{metric}")
        m[f"core_types.{metric}_s"] = seconds(f"core_types.{metric}")

    scores = count("scoring.block_score")
    hits, _ = split("scoring.block_score", 2)
    m["scoring.block_score_calls"] = scores
    m["scoring.block_score_s"] = seconds("scoring.block_score")
    m["scoring.cache_hit_ratio"] = _ratio(int(hits[1]), scores)

    m["witness.propose_calls"] = count("witness.propose_block")
    m["witness.propose_s"] = seconds("witness.propose_block")
    m["witness.sign_calls"] = count("witness.sign_witness")
    m["witness.sign_s"] = seconds("witness.sign_witness")
    refusals, _ = split("witness.sign_witness", len(REFUSALS) + 1)
    for reason in REFUSALS:
        m[f"witness.refusals.{reason.value}"] = int(refusals[_REFUSAL_CODE[reason]])
    mints = count("witness.mint_block")
    minted, _ = split("witness.mint_block", 2)
    m["witness.mint_calls"] = mints
    m["witness.mint_s"] = seconds("witness.mint_block")
    m["witness.mint_ok_ratio"] = _ratio(int(minted[1]), mints)

    m["incentive.coinbase_calls"] = count("incentive.build_coinbase")
    m["incentive.coinbase_s"] = seconds("incentive.build_coinbase")

    sent, _ = split("simnet.send", len(MESSAGE_TYPES))
    run_id = ids.get("simnet.run", -2)
    top_level = np.zeros(len(name), dtype=bool)
    has_parent = parent >= 0
    top_level[has_parent] = name[parent[has_parent]] == run_id
    delivered_total = 0
    for code, msg in enumerate(MESSAGE_TYPES):
        handler = f"simnet.{HANDLER_OF[msg.__name__]}"
        delivered = int(np.count_nonzero(top_level & (name == ids[handler]))) if handler in ids else 0
        delivered_total += delivered
        m[f"simnet.sent.{msg.__name__}"] = int(sent[code])
        m[f"simnet.delivered.{msg.__name__}"] = delivered
    # the event heap drains before run() returns, so every scheduled delivery
    # reached its handler: the rest were lost
    m["simnet.dropped"] = int(sent.sum()) - delivered_total
    m["simnet.send_s"] = seconds("simnet.send")
    m["simnet.self_s"] = float(self_by_name[run_id]) if run_id >= 0 else 0.0
    m["simnet.node_self_s"] = float(
        sum(self_by_name[ids[f"simnet.{attr}"]] for attr in NODE_METHODS if f"simnet.{attr}" in ids)
    )

    for layer in ("ledger", "core_types", "scoring", "witness", "incentive"):
        m[f"{layer}.self_s"] = layer_self(layer)
    m["trace.spans"] = len(name)
    return m
