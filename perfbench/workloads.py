"""The benchmark workloads: seeded inputs, timed operations, output checks.

A workload runs in units. A unit builds its inputs from the run's seed and
its index (the set-up, timed on its own), then performs its timed
operations:

- the simulation workloads run one ``Simulator`` per unit, and the
  operation is that simulation run;
- ``ledger_100k`` builds a fresh ``ChainState`` over 100k funded accounts per
  unit, and each operation is one block pushed through propose, witness,
  mint and apply.

After the timed part each unit checks its outputs and condenses its
simulated work into counters and a digest, so two runs of one seed, or a
traced and an untraced run, can show that they did identical work.

Parallel ``run_trials(jobs>1)`` is left out on purpose: on the two shared
cores this benchmark is sized for it would measure the scheduler.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from scorechain import core_types, ledger, simnet, witness
from scorechain.core_types import AccountBody, ChainConfig, TxModel, enc_u64
from scorechain.incentive import RewardSchedule
from scorechain.simnet import SimConfig, Strategy

from tracing import Tracer

_U64 = (1 << 64) - 1


def unit_seed(seed: int, index: int) -> int:
    """Seed of unit ``index`` of a run started with ``seed``."""
    return seed * 100_003 + index


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class UnitResult:
    """What one unit did, how long it took and whether its outputs held."""

    setup_s: float
    run_s: float = 0.0
    blocks: int = 0
    txs: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)  # per block, pipeline only
    counters: dict = field(default_factory=dict)
    digest: str = ""
    snapshots: int = 0
    bytes_per_block: float = 0.0
    problems: list[str] = field(default_factory=list)


@contextmanager
def _retained_bytes(result_box: list) -> Iterator[None]:
    """Bytes allocated and still held across the block (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        yield
        result_box.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()


def _span(tracer: "Tracer | None", name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# simulations
# ---------------------------------------------------------------------------

# SimReport fields summed into a run's fingerprint
FINGERPRINT_FIELDS = simnet.COUNTER_FIELDS + (
    "txs_injected",
    "txs_skipped",
    "proposals_expired",
    "confirmed_conflict_nodes",
    "honest_nodes",
    "max_height",
    "min_confirmed_height",
)


def sim_problems(sim: simnet.Simulator, report: simnet.SimReport) -> list[str]:
    """Safety outcomes of the report, then replay and value checks per node."""
    problems = []
    for name in ("hard_forks", "misled_events", "confirmed_conflict_nodes"):
        if getattr(report, name):
            problems.append(f"{name}={getattr(report, name)}")
    if not report.prefix_agreement:
        problems.append("confirmed prefixes disagree")
    for node in sim.nodes:
        if node.is_adversary:
            continue
        try:
            node.state.assert_replay_matches()
        except ledger.LedgerInvariantError as exc:
            problems.append(f"node {node.index}: {exc}")
        head = node.state.head_indices()
        if ledger.total_value(head) != head.issued - head.burned:
            problems.append(f"node {node.index}: value not conserved")
    return problems


@dataclass(frozen=True)
class SimWorkload:
    name: str
    why: str
    config: SimConfig
    fingerprint_units: int  # units every run performs first; they carry the fingerprint

    def unit(
        self, seed: int, index: int, tracer: "Tracer | None" = None, memory: bool = False
    ) -> UnitResult:
        cfg = replace(self.config, seed=unit_seed(seed, index))
        if tracer is not None:
            tracer.op_id = index
        with _span(tracer, "bench.setup"):
            t0 = time.perf_counter()
            sim = simnet.Simulator(cfg)
            out = UnitResult(setup_s=time.perf_counter() - t0, attempted=1)
        held: list[int] = []
        with _retained_bytes(held) if memory else nullcontext():
            with _span(tracer, "bench.op"):
                t0 = time.perf_counter()
                try:
                    report = sim.run()
                except Exception:
                    report = None
                    out.problems.append(traceback.format_exc())
                out.run_s = time.perf_counter() - t0
        out.snapshots = len(sim.snapshot_store)
        if report is None:
            out.failed = 1
            return out
        out.blocks = report.blocks_minted
        out.txs = report.txs_confirmed
        out.counters = {name: getattr(report, name) for name in FINGERPRINT_FIELDS}
        out.digest = _digest({**out.counters, "heads": report.per_node_head})
        if held and out.blocks:
            out.bytes_per_block = held[0] / out.blocks
        out.problems += sim_problems(sim, report)
        out.failed = 1 if out.problems else 0
        return out


# ---------------------------------------------------------------------------
# the single-node minting pipeline
# ---------------------------------------------------------------------------


@dataclass
class LedgerInputs:
    keys: list
    batches: list
    state: ledger.ChainState


@dataclass(frozen=True)
class LedgerWorkload:
    name: str
    why: str
    accounts: int
    blocks: int
    txs_per_block: int
    fingerprint_units: int
    validators: int = 8
    chain: ChainConfig = ChainConfig()

    def build(self, seed: int) -> LedgerInputs:
        """Funded keys, the blocks' payments and a fresh chain state."""
        scheme = core_types.get_scheme("stub")
        tag = b"perfbench-ledger" + enc_u64(seed & _U64)
        keys = [scheme.keypair(tag + enc_u64(i)) for i in range(self.accounts)]
        genesis = ledger.fund_accounts({node: 10**9 for _, node in keys})
        rng = random.Random(seed)
        nonces: dict[int, int] = {}
        batches = []
        for _ in range(self.blocks):
            batch = []
            for _ in range(self.txs_per_block):
                sender = rng.randrange(self.validators, self.accounts)
                recipient = rng.randrange(self.accounts - 1)
                recipient += recipient >= sender
                nonce = nonces.get(sender, 0)
                nonces[sender] = nonce + 1
                secret, sender_id = keys[sender]
                body = AccountBody(keys[recipient][1], rng.randint(1, 1000), nonce)
                batch.append(core_types.make_transaction(scheme, secret, sender_id, body))
            batches.append(batch)
        return LedgerInputs(keys, batches, ledger.ChainState(self.chain, scheme, genesis))

    def unit(
        self, seed: int, index: int, tracer: "Tracer | None" = None, memory: bool = False
    ) -> UnitResult:
        if tracer is not None:
            tracer.op_id = index * self.blocks
        with _span(tracer, "bench.setup"):
            t0 = time.perf_counter()
            inputs = self.build(unit_seed(seed, index))
            out = UnitResult(setup_s=time.perf_counter() - t0)
        held: list[int] = []
        with _retained_bytes(held) if memory else nullcontext():
            self._pipeline(inputs, out, tracer)
        state = inputs.state
        out.run_s = sum(out.latencies)
        out.snapshots = len(state.snapshots)
        if held and out.blocks:
            out.bytes_per_block = held[0] / out.blocks
        confirmed = state.confirmed_prefix()[1:]
        out.txs = sum(len(state.blocks[h].user_transactions()) for h in confirmed)
        out.counters = {
            "blocks_applied": out.blocks,
            "height": state.height,
            "txs_confirmed": out.txs,
            "failed": out.failed,
        }
        out.digest = _digest({**out.counters, "head": f"{state.head.block_hash:064x}"})
        try:
            state.assert_replay_matches()
        except ledger.LedgerInvariantError as exc:
            out.problems.append(str(exc))
        head = state.head_indices()
        if ledger.total_value(head) != head.issued - head.burned:
            out.problems.append("value not conserved")
        return out

    def _pipeline(self, inputs: LedgerInputs, out: UnitResult, tracer: "Tracer | None") -> None:
        logs: list[dict] = [{} for _ in range(self.validators)]
        clock = time.perf_counter
        for height, batch in enumerate(inputs.batches):
            roles = [(height + k) % self.validators for k in range(3)]
            with _span(tracer, "bench.op"):
                t0 = clock()
                problem = self._push_block(inputs, batch, roles, logs)
                out.latencies.append(clock() - t0)
            if tracer is not None:
                tracer.op_id += 1
            out.attempted += 1
            if problem is None:
                out.blocks += 1
            else:
                out.failed += 1
                out.problems.append(f"block {height + 1}: {problem}")

    def _push_block(
        self, inputs: LedgerInputs, batch: list, roles: list[int], logs: list[dict]
    ) -> "str | None":
        """Propose, witness, mint and apply one block; None when it is stored."""
        # module attributes are looked up per call so that traced runs see
        # the wrapped functions
        cfg, state = self.chain, inputs.state
        proposer, *witnesses = roles
        req = witness.propose_block(inputs.keys[proposer][1], state, batch, cfg)
        if req is None:
            return "proposal refused its transactions"
        sigs = [
            witness.sign_witness(*inputs.keys[w], req, state, cfg, logs[w]) for w in witnesses
        ]
        refused = [s.reason.value for s in sigs if isinstance(s, witness.Refusal)]
        if refused:
            return f"witness refused: {refused}"
        block = witness.mint_block(req, sigs, cfg, state.scheme)
        if block is None:
            return "mint returned None"
        result = state.apply_block(block)
        return None if result.stored else f"apply {result.status.value}"


# ---------------------------------------------------------------------------
# the workload table
# ---------------------------------------------------------------------------

Workload = SimWorkload | LedgerWorkload

# Two workloads, so that each run can last a minute. A long account-model
# simulation (n=20, d=1000, where fork choice grows with height) and a
# 100-node gossip workload were left out: on a shared two-core host whose
# speed drifts by up to 1.7x over minutes, their run-to-run spread reached the
# bound. Both simulations' layers are still measured by sim_utxo_ed25519.
WORKLOADS: dict[str, Callable[[], Workload]] = {
    "sim_utxo_ed25519": lambda: SimWorkload(
        "sim_utxo_ed25519",
        "Ed25519, UTXO model, rewards and 25% double-spenders: signature checks, rejections, coinbase hooks",
        SimConfig(
            scheme="ed25519",
            tx_model=TxModel.UTXO,
            rewards=RewardSchedule(proposer_reward=50, witness_subsidy=10),
            adversary_fraction=0.25,
            adversary_strategy=Strategy.DOUBLE_SPEND,
        ),
        fingerprint_units=10,
    ),
    "ledger_100k": lambda: LedgerWorkload(
        "ledger_100k",
        "one node's propose-witness-mint-apply pipeline over 100k funded accounts, where state snapshots dominate",
        accounts=100_000,
        blocks=100,
        txs_per_block=8,
        fingerprint_units=5,
    ),
}

# small shapes of the same workloads, for the benchmark's own tests
TINY: dict[str, dict] = {
    "sim_utxo_ed25519": {
        "config": replace(WORKLOADS["sim_utxo_ed25519"]().config, n_nodes=8, duration=60),
        "fingerprint_units": 3,
    },
    "ledger_100k": {"accounts": 300, "blocks": 12, "fingerprint_units": 3},
}


def get(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]()
    return replace(workload, **TINY[name]) if tiny else workload
