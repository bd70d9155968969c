"""Seeded discrete-event network simulator driving the full protocol.

N nodes (some adversarial) exchange transactions, witness requests, witness
signatures, blocks, fork-win announcements, and pull requests over a lossy
broadcast network: every send reaches each addressee independently with
probability r after a sampled latency, measured in logical ticks. One seeded
generator drives every random draw, so a run is a pure function of its config.
Events run in tick order, then in the order they were scheduled: each tick
has one FIFO list, and an event scheduled for the tick being run (a
zero-delay delivery) joins the end of its list.

Honest nodes follow the ledger and witness rules exactly. Proposal slots are
staggered round-robin so the common case is a single live proposer, but loss
and latency still produce concurrent proposals, forks, and orphans, which is
the behavior under test. The module also houses the two Monte Carlo oracles
used by the analysis layer: the witness-corruption experiment (real proposal,
refusal, and signing path) and the abstract miss-model for the misled bound.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter, defaultdict, deque
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import get_args, get_type_hints

from .analysis import SafetyParams, misled_exponent, pr_invalid_witnessed, wilson_interval
from .core_types import (
    AccountBody,
    Block,
    ChainConfig,
    MAX_HASH,
    NodeId,
    Outpoint,
    SignatureScheme,
    Transaction,
    TxModel,
    TxOutput,
    UtxoBody,
    enc_u64,
    get_scheme,
    make_transaction,
)
from .incentive import RewardSchedule, make_coinbase_rule
from .ledger import (
    ApplyStatus,
    ChainState,
    HeightCache,
    TxIndices,
    confirmed_conflicts,
    fund_accounts,
    fund_utxos,
)
from .scoring import block_score
from .witness import (
    Refusal,
    WitnessSignature,
    endorse,
    is_eligible_witness,
    mint_block,
    propose_block,
    sign_witness,
)


class SimConfigError(ValueError):
    """A config field failed validation; names the offending key."""

    def __init__(self, key: str, message: str) -> None:
        self.key = key
        super().__init__(f"{key}: {message}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LatencySpec:
    """Delivery delay in ticks, drawn uniformly from lo..hi inclusive."""

    lo: int = 1
    hi: int = 1

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise SimConfigError("latency", "need 0 <= lo <= hi")


class Strategy(Enum):
    NONE = "none"
    DOUBLE_SPEND = "double_spend"
    EQUIVOCATE = "equivocate"
    INVALID_BLOCK_PUSH = "invalid_block_push"


# Witness eligibility for simulated nodes: each proposer's neighborhood is
# roughly 60% of the network. With every node eligible for every proposer,
# one losing proposal at a height exhausts the whole network's one-signature-
# per-height budget and the height can deadlock; distinct neighborhoods keep
# fresh witnesses available, which is what the distance predicate is for.
SIM_WITNESS_THRESHOLD = (MAX_HASH // 5) * 3

SLOT_SPACING = 3  # ticks between consecutive proposal slots
PROPOSAL_TIMEOUT = 16  # ticks a proposer waits for its witnesses
MEMPOOL_CAP = 4096  # transactions a node holds; later arrivals are dropped
GENESIS_UNITS = 10**9  # account model: each node's opening balance
GENESIS_OUTPUTS = 96  # UTXO model: each node's opening outputs,
UTXO_UNIT = 1000  # each worth this much
# The stores a simulator's nodes share drop what they filed below a horizon:
# the lowest node head, less confirm_depth, less this slack.
HORIZON_SLACK = 8
# events a run may process; one that queues more before it starts cannot finish
EVENT_BUDGET = 5_000_000


def queued_events(cfg: "SimConfig") -> int:
    """Events run() queues before any runs: its proposal slots and whole injections."""
    return -(-cfg.duration // SLOT_SPACING) + cfg.duration * int(cfg.tx_rate)


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One run's settings, checked at construction: a SimConfig that exists is
    valid. Its JSON (to_dict, from_dict) is derived from the field types."""

    n_nodes: int = 20
    adversary_fraction: float = 0.0
    delivery_ratio: float = 0.9
    latency: LatencySpec = LatencySpec(1, 3)
    chain: ChainConfig = ChainConfig(witness_threshold=SIM_WITNESS_THRESHOLD)
    tx_rate: float = 1.5
    duration: int = 200
    seed: int = 42
    adversary_strategy: Strategy = Strategy.NONE
    tx_model: TxModel = TxModel.ACCOUNT
    scheme: str = "stub"
    rewards: RewardSchedule | None = None
    fork_win_extra: int = 0  # the l of the safety analysis
    replay_check: bool = False

    def __post_init__(self) -> None:
        # a proposer cannot witness its own block
        if self.n_nodes <= self.chain.witness_m:
            raise SimConfigError("n_nodes", "must exceed chain.witness_m")
        if not 0.0 <= self.adversary_fraction <= 1.0:
            raise SimConfigError("adversary_fraction", "must be in [0, 1]")
        if not 0.0 < self.delivery_ratio <= 1.0:
            raise SimConfigError("delivery_ratio", "must be in (0, 1]")
        if self.duration < 1:
            raise SimConfigError("duration", "must be positive")
        if not (math.isfinite(self.tx_rate) and self.tx_rate >= 0):
            raise SimConfigError("tx_rate", "must be finite and non-negative")
        if queued_events(self) > EVENT_BUDGET:
            raise SimConfigError("duration", f"queues over the {EVENT_BUDGET}-event budget")
        if self.fork_win_extra < 0:
            raise SimConfigError("fork_win_extra", "must be non-negative")
        try:
            get_scheme(self.scheme)
        except ValueError as exc:
            raise SimConfigError("scheme", str(exc)) from None

    def to_dict(self) -> dict:
        return {"config_version": 1, **_to_json(self)}

    @classmethod
    def from_dict(cls, data: object) -> "SimConfig":
        """Decode to_dict output; a missing key, at any level, keeps the default
        config's value, and a malformed one raises SimConfigError by name."""
        if not isinstance(data, dict):
            raise SimConfigError("config", "must be a JSON object")
        data = dict(data)
        version = data.pop("config_version", 1)
        if type(version) is not int or version != 1:
            raise SimConfigError("config_version", f"must be 1, not {version!r}")
        return _from_json("", cls, data, cls())


# -- JSON ------------------------------------------------------------------------------


def _hex_field(f) -> bool:
    """Whether a field is declared for 256-bit values: its default is past 2**53,
    the largest integer every JSON reader holds exactly."""
    return type(f.default) is int and f.default > 2**53


def _to_json(value: object, hex_int: bool = False) -> object:
    """A dataclass as an object of its fields, an Enum as its lower-case name,
    a 256-bit field in hex, and any other value as is."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name), _hex_field(f)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.name.lower()
    return f"{value:x}" if hex_int else value


def _from_json(key: str, kind: type, value: object, default: object, hex_int: bool = False):
    """value, read from JSON at key, as a kind; missing fields keep default's."""
    if type(None) in get_args(kind):  # X | None
        if value is None:
            return None
        (kind,) = set(get_args(kind)) - {type(None)}
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise SimConfigError(key, "must be a JSON object")
        hints = get_type_hints(kind)
        known = {f.name: f for f in fields(kind)}
        base = kind() if default is None else default
        changes = {}
        for name, item in value.items():
            at = f"{key}.{name}" if key else name
            if name not in known:
                raise SimConfigError(at, "unknown config key")
            hex_item = _hex_field(known[name])
            changes[name] = _from_json(at, hints[name], item, getattr(base, name), hex_item)
        try:
            return replace(base, **changes)
        except SimConfigError:
            raise
        except ValueError as exc:
            raise SimConfigError(key, str(exc)) from None
    if issubclass(kind, Enum):
        name = value.upper() if isinstance(value, str) else None
        if name not in kind.__members__:
            choices = ", ".join(m.name.lower() for m in kind)
            raise SimConfigError(key, f"unknown value {value!r}; one of {choices}")
        return kind[name]
    if hex_int and isinstance(value, str):
        try:
            return int(value, 16)
        except ValueError:
            raise SimConfigError(key, "must be hex") from None
    # JSON has one number type, so a float field also takes an integer
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise SimConfigError(key, f"must be {kind.__name__}, not {type(value).__name__}")


# ---------------------------------------------------------------------------
# wire messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TxGossip:
    tx: Transaction


@dataclass(frozen=True, slots=True)
class WitnessReqMsg:
    candidate: Block


@dataclass(frozen=True, slots=True)
class WitnessSigMsg:
    block_hash: int
    sig: WitnessSignature


@dataclass(frozen=True, slots=True)
class BlockGossip:
    block: Block


@dataclass(frozen=True, slots=True)
class ForkWinGossip:
    branch_head: int  # head of the branch the sender switched to


@dataclass(frozen=True, slots=True)
class PullReq:
    want: int  # block hash the sender is missing


@dataclass(frozen=True, slots=True)
class PullReply:
    blocks: tuple[Block, ...]


# event kinds
EV_DELIVER = 0
EV_INJECT = 1
EV_PROPOSE = 2
EV_TIMEOUT = 3


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class SimReport:
    """Outcome counters of one run; a pure function of the config."""

    seed: int
    misled_events: int = 0
    hard_forks: int = 0
    invalid_minted: int = 0
    blocks_minted: int = 0
    txs_confirmed: int = 0
    fork_win_msgs: int = 0
    confirmed_conflict_nodes: int = 0
    prefix_agreement: bool = True
    proposals: int = 0
    proposals_expired: int = 0
    txs_injected: int = 0
    txs_skipped: int = 0
    switches: int = 0
    orphans_expired: int = 0
    honest_nodes: int = 0
    max_height: int = 0
    min_confirmed_height: int = 0
    per_node_head: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


COUNTER_FIELDS = (
    "misled_events",
    "hard_forks",
    "invalid_minted",
    "blocks_minted",
    "txs_confirmed",
    "fork_win_msgs",
    "proposals",
    "switches",
    "orphans_expired",
)


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------


@dataclass
class _Pending:
    """A proposal awaiting witness signatures."""

    candidate: Block
    sigs: dict[NodeId, WitnessSignature] = field(default_factory=dict)


class HonestNode:
    """Protocol-following participant: ledger, mempool, wallet, witness log."""

    is_adversary = False

    def __init__(self, sim: "Simulator", index: int, secret: bytes, node_id: NodeId):
        self.sim = sim
        self.index = index
        self.secret = secret
        self.node_id = node_id
        cfg = sim.cfg
        self.state = ChainState(
            cfg.chain,
            sim.scheme,
            sim.genesis_indices,
            coinbase_rule=sim.coinbase_rule,
            replay_check=cfg.replay_check,
            snapshot_store=sim.snapshot_store,
            verdict_cache=sim.verdict_cache,
        )
        self.mempool: dict[int, Transaction] = {}
        self.witness_log: dict[int, int] = {}
        self.pending: "_Pending | None" = None
        self.wallet_nonce = 0
        self.wallet_grants: deque = deque()
        # the block first confirmed at each height, for misled detection
        self.first_confirmed: list[int] = [self.state.genesis.block_hash]

    # -- wallet ------------------------------------------------------------

    def pay(self, recipient: NodeId, amount: int, source: "int | Outpoint") -> Transaction:
        """This node's signed payment of amount to recipient, drawn on account
        nonce `source`, or spending the one output `source` in the UTXO model."""
        if isinstance(source, Outpoint):
            body = UtxoBody((source,), (TxOutput(recipient, amount),))
        else:
            body = AccountBody(recipient, amount, source)
        return make_transaction(self.sim.scheme, self.secret, self.node_id, body)

    def build_payment(self) -> "Transaction | None":
        sim = self.sim
        recipient = sim.node_ids[sim.rng.randrange(sim.cfg.n_nodes)]
        if recipient == self.node_id:
            recipient = sim.node_ids[(self.index + 1) % sim.cfg.n_nodes]
        if sim.cfg.tx_model is TxModel.ACCOUNT:
            tx = self.pay(recipient, sim.rng.randint(1, 3), self.wallet_nonce)
            self.wallet_nonce += 1
            return tx
        if not self.wallet_grants:
            return None
        outpoint, amount = self.wallet_grants.popleft()
        return self.pay(recipient, amount, outpoint)

    def inject_tx(self) -> None:
        tx = self.build_payment()
        if tx is None:
            self.sim.report.txs_skipped += 1
            return
        self.sim.report.txs_injected += 1
        self.accept_tx(tx)
        self.sim.broadcast(self.index, TxGossip(tx))

    def accept_tx(self, tx: Transaction) -> None:
        if tx.tx_id not in self.mempool and len(self.mempool) < MEMPOOL_CAP:
            self.mempool[tx.tx_id] = tx

    # -- proposing -----------------------------------------------------------

    def on_propose_slot(self) -> None:
        if self.pending is not None:
            return
        # selection doubles as mempool garbage collection
        dead: list[int] = []
        candidate = propose_block(
            self.node_id, self.state, self.mempool.values(), self.sim.cfg.chain, dead=dead
        )
        for tx_id in dead:
            del self.mempool[tx_id]
        if candidate is None:
            return
        best = self.state.best_score_at(candidate.height)
        if best is not None and best < block_score(candidate):
            return  # a known competitor already wins that height
        self.sim.schedule_timeout(self.index, candidate.block_hash)
        self.pending = self.float_request(candidate)

    def float_request(self, candidate: Block) -> _Pending:
        """Count a proposal and broadcast it to the witnesses.

        Returns the record that collects the endorsements; the caller keeps
        it. Only self.pending expires, on a timeout the caller schedules first.
        """
        self.sim.report.proposals += 1
        self.sim.broadcast(self.index, WitnessReqMsg(candidate))
        return _Pending(candidate)

    # -- message handlers ------------------------------------------------------

    def on_witness_request(self, msg: WitnessReqMsg, sender: int) -> None:
        result = sign_witness(
            self.secret,
            self.node_id,
            msg.candidate,
            self.state,
            self.sim.cfg.chain,
            self.witness_log,
        )
        if isinstance(result, WitnessSignature):
            self.sim.send(self.index, sender, WitnessSigMsg(msg.candidate.block_hash, result))

    def on_witness_sig(self, msg: WitnessSigMsg) -> None:
        pending = self.pending
        if pending is not None and pending.candidate.block_hash == msg.block_hash:
            if self.mint_and_adopt(pending, msg.sig):
                self.pending = None

    def mint_and_adopt(self, pending: _Pending, sig: WitnessSignature) -> bool:
        """Record an endorsement; once m are in, mint and adopt the block.

        Returns True when a block was minted, so the caller can retire the
        pending it came from.
        """
        pending.sigs[sig.witness] = sig
        sim = self.sim
        if len(pending.sigs) < sim.cfg.chain.witness_m:
            return False
        block = mint_block(
            pending.candidate,
            list(pending.sigs.values()),
            sim.cfg.chain,
            sim.scheme,
            coinbase_rule=sim.coinbase_rule,
            system_nonce=self.state.system_nonce_at(pending.candidate.parent_hash),
        )
        if block is None:
            return False
        sim.report.blocks_minted += 1
        self.handle_block(block)
        return True

    def handle_block(self, block: Block, pull_from: "int | None" = None) -> None:
        result = self.state.apply_block(block)
        if result.status is ApplyStatus.ORPHANED and pull_from is not None:
            self.sim.send(self.index, pull_from, PullReq(block.parent_hash))
        if result.stored:
            if self.pending is not None and self.state.height >= self.pending.candidate.height:
                self.pending = None  # someone else won the height; move on
            # only the apply that stores a block reports it accepted, so each
            # block is broadcast once
            if result.status in (ApplyStatus.ACCEPTED, ApplyStatus.SWITCHED):
                self.sim.broadcast(self.index, BlockGossip(block))
            self.emit_fork_wins()
            self.record_confirmations()

    def emit_fork_wins(self) -> None:
        for head in self.state.pop_fork_events():
            gossip = ForkWinGossip(head)
            for _ in range(1 + self.sim.cfg.fork_win_extra):
                self.sim.broadcast(self.index, gossip)

    def on_fork_win(self, gossip: ForkWinGossip, from_idx: int) -> None:
        # admission keeps the followed chain current, so a known branch head
        # needs nothing more; an unknown one is pulled from the announcer
        head = gossip.branch_head
        if not self.state.has_block(head):
            self.sim.send(self.index, from_idx, PullReq(head))

    def on_pull_req(self, msg: PullReq, sender: int) -> None:
        want = self.state.blocks.get(msg.want)
        if want is None:
            return
        chain: list[Block] = []
        cursor: "Block | None" = want
        for _ in range(8):
            if cursor is None or cursor.height == 0:
                break
            chain.append(cursor)
            cursor = self.state.blocks.get(cursor.parent_hash)
        if chain:
            self.sim.send(self.index, sender, PullReply(tuple(reversed(chain))))

    def on_pull_reply(self, msg: PullReply) -> None:
        for block in msg.blocks:
            self.handle_block(block)

    def on_timeout(self, block_hash: int) -> None:
        if self.pending is not None and self.pending.candidate.block_hash == block_hash:
            self.pending = None
            self.sim.report.proposals_expired += 1

    # -- confirmation history ----------------------------------------------------

    def record_confirmations(self) -> None:
        state = self.state
        boundary = state.head.height - state.cfg.confirm_depth
        for height in range(len(self.first_confirmed), boundary + 1):
            self.first_confirmed.append(state.main_by_height[height])

    def final_confirmed(self) -> tuple[list[int], bool]:
        """The end-of-run confirmed block at each height, and whether any of
        them differs from the block first confirmed at that height."""
        prefix = self.state.confirmed_prefix()
        first = self.first_confirmed
        conflicted = any(now != then for now, then in zip(prefix, first))
        return prefix + first[len(prefix) :], conflicted


class AdversaryNode(HonestNode):
    """Colluding participant: endorses anything, ignores height logs."""

    is_adversary = True

    def on_witness_request(self, msg: WitnessReqMsg, sender: int) -> None:
        candidate = msg.candidate
        if candidate.proposer == self.node_id:
            return
        if not is_eligible_witness(candidate.proposer, self.node_id, self.sim.cfg.chain):
            return  # an ineligible signature would be dropped anyway
        sig = endorse(self.sim.scheme, self.secret, self.node_id, candidate)
        self.sim.send(self.index, sender, WitnessSigMsg(candidate.block_hash, sig))


class DoubleSpendAdversary(AdversaryNode):
    """Emits conflicting transaction pairs, each half to half the network."""

    def on_propose_slot(self) -> None:
        self.emit_conflict_pair()
        super().on_propose_slot()

    def emit_conflict_pair(self) -> None:
        sim = self.sim
        others = [i for i in range(sim.cfg.n_nodes) if i != self.index]
        sim.rng.shuffle(others)
        half = len(others) // 2
        pair = self.build_conflict_pair()
        if pair is None:
            return
        tx_a, tx_b = pair
        sim.report.txs_injected += 2
        self.accept_tx(tx_a)
        for peer in others[:half]:
            sim.send(self.index, peer, TxGossip(tx_a))
        for peer in others[half:]:
            sim.send(self.index, peer, TxGossip(tx_b))

    def build_conflict_pair(self) -> "tuple[Transaction, Transaction] | None":
        sim = self.sim
        victims = [nid for nid in sim.node_ids if nid != self.node_id]
        to_a = victims[sim.rng.randrange(len(victims))]
        to_b = victims[sim.rng.randrange(len(victims))]
        if sim.cfg.tx_model is TxModel.ACCOUNT:
            source, amount_a, amount_b = self.wallet_nonce, 1, 2
            self.wallet_nonce += 1
        elif self.wallet_grants:
            source, amount_a = self.wallet_grants.popleft()
            amount_b = amount_a
        else:
            return None
        return self.pay(to_a, amount_a, source), self.pay(to_b, amount_b, source)


class EquivocateAdversary(AdversaryNode):
    """Floats two different valid candidates for the same height at once."""

    twin: "_Pending | None" = None  # the second candidate; no timeout

    def on_propose_slot(self) -> None:
        if self.pending is not None:
            return
        chain = self.sim.cfg.chain
        need = chain.tx_count_min
        proposal = propose_block(
            self.node_id, self.state, self.mempool.values(), chain, max_txs=need + 1
        )
        if proposal is None or len(proposal.transactions) <= need:
            super().on_propose_slot()
            return
        valid = proposal.transactions
        parent, height = proposal.parent_hash, proposal.height
        first = Block(parent, height, self.node_id, valid[:need])
        second = Block(parent, height, self.node_id, valid[1:])
        self.sim.schedule_timeout(self.index, first.block_hash)
        self.pending = self.float_request(first)
        self.twin = self.float_request(second)

    def on_witness_sig(self, msg: WitnessSigMsg) -> None:
        twin = self.twin
        if twin is not None and twin.candidate.block_hash == msg.block_hash:
            if self.mint_and_adopt(twin, msg.sig):
                self.twin = None
            return
        super().on_witness_sig(msg)


class InvalidPushAdversary(AdversaryNode):
    """Proposes blocks containing an invalid transaction; peers endorse blindly."""

    def on_propose_slot(self) -> None:
        if self.pending is not None:
            return
        sim = self.sim
        cfg = sim.cfg
        filler: list[Transaction] = []
        indices = self.state.head_indices().clone()
        for _ in range(cfg.chain.tx_count_min - 1):
            tx = self.build_payment()
            if tx is not None and indices.validate_tx(tx, sim.scheme) is None:
                filler.append(tx)
        bad = self.build_invalid_tx()
        txs = tuple(filler) + (bad,)
        if len(txs) < cfg.chain.tx_count_min:
            return
        head = self.state.head
        candidate = Block(head.block_hash, head.height + 1, self.node_id, txs)
        sim.schedule_timeout(self.index, candidate.block_hash)
        self.pending = self.float_request(candidate)

    def build_invalid_tx(self) -> Transaction:
        sim = self.sim
        recipient = sim.node_ids[(self.index + 1) % sim.cfg.n_nodes]
        if sim.cfg.tx_model is TxModel.ACCOUNT:
            return self.pay(recipient, 1, self.wallet_nonce + 9999)
        return self.pay(recipient, 1, Outpoint(tx_id=sim.rng.getrandbits(256), index=0))

    def mint_and_adopt(self, pending: _Pending, sig: WitnessSignature) -> bool:
        if not super().mint_and_adopt(pending, sig):
            return False
        self.sim.report.invalid_minted += 1
        return True


_STRATEGY_CLASS = {
    Strategy.NONE: AdversaryNode,
    Strategy.DOUBLE_SPEND: DoubleSpendAdversary,
    Strategy.EQUIVOCATE: EquivocateAdversary,
    Strategy.INVALID_BLOCK_PUSH: InvalidPushAdversary,
}


# ---------------------------------------------------------------------------
# the simulator
# ---------------------------------------------------------------------------


class _VerifiedMemo(SignatureScheme):
    """A simulator's scheme: the plain one, remembering what verified.

    Every node of one simulated network checks the same signed bytes, so a
    (public key, message, signature) triple that verified once is answered
    from a store afterwards. A failed check is never stored: a bad signature
    reaches the plain scheme on every call, and only valid signatures grow
    the store. keypair and sign delegate unchanged.

    The store is a HeightCache written only through put, so every triple is
    filed, at `height`, which the simulator keeps at its lowest node head. It
    is dropped with the rest of the simulator's shared stores once that
    falls below their horizon; no checkpoint keeps one. A dropped triple
    that is asked about again is verified again.
    """

    def __init__(self, plain: SignatureScheme) -> None:
        self.plain = plain
        self.name = plain.name
        self.height = 0
        self.store = HeightCache()  # verified triple -> True

    def keypair(self, seed: bytes) -> tuple[bytes, NodeId]:
        return self.plain.keypair(seed)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return self.plain.sign(secret, message)

    def verify(self, public: NodeId, message: bytes, signature: bytes) -> bool:
        triple = (public.public_key, message, signature)
        if triple in self.store:
            return True
        if not self.plain.verify(public, message, signature):
            return False
        self.store.put(self.height, triple, True)
        return True


class Simulator:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        # verified signatures, like the two stores below, are shared by every
        # node and held only down to the horizon (_prune)
        self.scheme = _VerifiedMemo(get_scheme(cfg.scheme))
        self.report = SimReport(seed=cfg.seed, config=cfg.to_dict())
        # tick -> (kind, payload) events in scheduling order
        self._queue: defaultdict[int, list] = defaultdict(list)
        self._now = 0
        # send draws a delay as rng.randint(lo, hi) does: lo plus the first
        # getrandbits(k) draw below span, so every seed keeps its sequence
        self._latency_lo = cfg.latency.lo
        self._latency_span = cfg.latency.hi - cfg.latency.lo + 1
        self._latency_bits = self._latency_span.bit_length()

        secrets = []
        node_ids = []
        for index in range(cfg.n_nodes):
            secret, node_id = self.scheme.keypair(
                b"sim-node" + enc_u64(cfg.seed & ((1 << 64) - 1)) + enc_u64(index)
            )
            secrets.append(secret)
            node_ids.append(node_id)
        self.node_ids = node_ids

        self.genesis_indices = self._build_alloc()
        self.snapshot_store = HeightCache()
        self.verdict_cache = HeightCache()
        self._horizon = 0
        self.coinbase_rule = None
        if cfg.rewards is not None:
            self.coinbase_rule = make_coinbase_rule(cfg.rewards, cfg.tx_model)

        n_adv = round(cfg.adversary_fraction * cfg.n_nodes)
        adv_indices = set(self.rng.sample(range(cfg.n_nodes), n_adv)) if n_adv else set()
        adv_cls = _STRATEGY_CLASS[cfg.adversary_strategy]
        grants = self._grants_by_owner() if cfg.tx_model is TxModel.UTXO else None
        self.nodes: list[HonestNode] = []
        for index in range(cfg.n_nodes):
            cls = adv_cls if index in adv_indices else HonestNode
            node = cls(self, index, secrets[index], node_ids[index])
            if grants is not None:
                node.wallet_grants = deque(grants[node_ids[index]])
            self.nodes.append(node)
        self.report.honest_nodes = sum(1 for n in self.nodes if not n.is_adversary)

    # -- setup -------------------------------------------------------------

    def _build_alloc(self) -> TxIndices:
        cfg = self.cfg
        if cfg.tx_model is TxModel.ACCOUNT:
            return fund_accounts({nid: GENESIS_UNITS for nid in self.node_ids})
        alloc = {nid: [UTXO_UNIT] * GENESIS_OUTPUTS for nid in self.node_ids}
        return fund_utxos(alloc)

    def _grants_by_owner(self) -> dict[NodeId, list]:
        """Every node's genesis outputs, from one pass over the UTXO set."""
        grants: dict[NodeId, list] = {nid: [] for nid in self.node_ids}
        for outpoint, out in self.genesis_indices.utxos.items():
            grants[out.owner].append((outpoint, out.amount))
        return grants

    # -- scheduling -----------------------------------------------------------

    def _push(self, at: int, kind: int, payload) -> None:
        self._queue[at].append((kind, payload))

    def send(self, sender: int, target: int, message) -> None:
        """Point-to-point send under the same loss and latency model."""
        rng = self.rng
        if rng.random() < self.cfg.delivery_ratio:
            span, bits = self._latency_span, self._latency_bits
            r = rng.getrandbits(bits)
            while r >= span:
                r = rng.getrandbits(bits)
            self._queue[self._now + self._latency_lo + r].append(
                (EV_DELIVER, (target, sender, message))
            )

    def broadcast(self, sender: int, message) -> None:
        for target in range(self.cfg.n_nodes):
            if target != sender:
                self.send(sender, target, message)

    def schedule_timeout(self, index: int, block_hash: int) -> None:
        self._push(self._now + PROPOSAL_TIMEOUT, EV_TIMEOUT, (index, block_hash))

    # -- run --------------------------------------------------------------------

    def run(self) -> SimReport:
        cfg = self.cfg
        whole = int(cfg.tx_rate)
        frac = cfg.tx_rate - whole
        for tick in range(cfg.duration):
            if tick % SLOT_SPACING == 0:
                proposer = (tick // SLOT_SPACING) % cfg.n_nodes
                self._push(tick, EV_PROPOSE, proposer)
            count = whole + (1 if self.rng.random() < frac else 0)
            for _ in range(count):
                self._push(tick, EV_INJECT, self.rng.randrange(cfg.n_nodes))
        queue = self._queue
        processed = 0
        tick = -1
        while queue:
            # every event lands at or after the running tick, so the next
            # tick is usually tick + 1; otherwise jump to the earliest one
            tick = tick + 1 if tick + 1 in queue else min(queue)
            self._now = tick
            # the list grows while it is drained: a zero-delay delivery
            # runs after everything already scheduled for this tick
            for kind, payload in queue[tick]:
                processed += 1
                if processed > EVENT_BUDGET:
                    raise RuntimeError("event budget exceeded; runaway cascade")
                if kind == EV_DELIVER:
                    target, sender, message = payload
                    self._deliver(target, sender, message)
                elif kind == EV_INJECT:
                    self.nodes[payload].inject_tx()
                elif kind == EV_PROPOSE:
                    self.nodes[payload].on_propose_slot()
                elif kind == EV_TIMEOUT:
                    index, block_hash = payload
                    self.nodes[index].on_timeout(block_hash)
            del queue[tick]
            self._prune()
        self._finalize()
        return self.report

    def _prune(self) -> None:
        """Move the shared stores' horizon up with the lowest node head.

        Every node's head is at or above the lowest, and a block more than
        confirm_depth below a head is settled unless a longer branch
        arrives, so what the stores file below the horizon is rarely asked
        for again; a miss costs a recomputation, never an answer.
        """
        lowest = min([node.state.head.height for node in self.nodes])
        self.scheme.height = lowest
        horizon = lowest - self.cfg.chain.confirm_depth - HORIZON_SLACK
        if horizon <= self._horizon:
            return
        self._horizon = horizon
        self.snapshot_store.drop_below(horizon)
        self.verdict_cache.drop_below(horizon)
        self.scheme.store.drop_below(horizon)

    def _deliver(self, target: int, sender: int, message) -> None:
        node = self.nodes[target]
        cls = type(message)  # message classes have no subclasses
        if cls is TxGossip:
            node.accept_tx(message.tx)
        elif cls is WitnessReqMsg:
            node.on_witness_request(message, sender)
        elif cls is WitnessSigMsg:
            node.on_witness_sig(message)
        elif cls is BlockGossip:
            node.handle_block(message.block, pull_from=sender)
        elif cls is ForkWinGossip:
            node.on_fork_win(message, sender)
        elif cls is PullReq:
            node.on_pull_req(message, sender)
        elif cls is PullReply:
            node.on_pull_reply(message)

    # -- end-of-run accounting ------------------------------------------------------

    def _finalize(self) -> None:
        report = self.report
        honest = [n for n in self.nodes if not n.is_adversary]
        for node in self.nodes:
            report.per_node_head[str(node.index)] = f"{node.state.head.block_hash:064x}"
            report.switches += node.state.stats.switches
            report.orphans_expired += node.state.stats.orphans_expired
        # every switch is announced in the apply that records it
        report.fork_win_msgs = report.switches * (1 + self.cfg.fork_win_extra)
        if not honest:
            return
        finals = [node.final_confirmed() for node in honest]
        majority: list[int] = []
        divergent = False
        for height in range(max(len(record) for record, _ in finals)):
            votes = Counter(record[height] for record, _ in finals if height < len(record))
            if len(votes) > 1:
                divergent = True
            top = max(votes.values())
            majority.append(min(h for h, v in votes.items() if v == top))
        report.hard_forks = 1 if divergent else 0
        # blocks are content-addressed, so nodes that share a confirmed
        # prefix share its verdict; most honest nodes do
        conflicted_prefix: dict[tuple[int, ...], bool] = {}
        for node, (record, conflicted) in zip(honest, finals):
            if conflicted or any(a != b for a, b in zip(record, majority)):
                report.misled_events += 1
            prefix = tuple(node.state.confirmed_prefix())
            verdict = conflicted_prefix.get(prefix)
            if verdict is None:
                verdict = conflicted_prefix[prefix] = bool(confirmed_conflicts(node.state))
            if verdict:
                report.confirmed_conflict_nodes += 1
        # end-of-run confirmed prefixes must agree pairwise: every honest
        # prefix is a prefix of the longest one
        prefixes = sorted(
            (node.state.confirmed_prefix() for node in honest), key=len
        )
        longest = prefixes[-1]
        report.prefix_agreement = all(
            prefix == longest[: len(prefix)] for prefix in prefixes
        )
        confirmed_txs = 0
        block_lookup: dict[int, Block] = {}
        for node in honest:
            block_lookup.update(node.state.blocks)
        for block_hash in majority[1:]:
            block = block_lookup.get(block_hash)
            if block is not None:
                confirmed_txs += sum(1 for tx in block.transactions if not tx.is_coinbase())
        report.txs_confirmed = confirmed_txs
        report.max_height = max(node.state.head.height for node in honest)
        report.min_confirmed_height = min(len(record) for record, _ in finals) - 1


def run_simulation(cfg: SimConfig) -> SimReport:
    """One deterministic run; identical config gives an identical report."""
    return Simulator(cfg).run()


# ---------------------------------------------------------------------------
# trial batches
# ---------------------------------------------------------------------------


@dataclass
class TrialsResult:
    trials: int
    base_seed: int
    totals: dict
    means: dict
    mins: dict
    maxs: dict
    hard_fork_runs: int
    hard_fork_ci: tuple[float, float]
    misled_nodes: int
    honest_node_runs: int
    misled_ci: "tuple[float, float] | None"  # None when no node was honest
    rows: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def summary_line(self) -> str:
        return (
            f"trials={self.trials} hard_forks={self.totals['hard_forks']} "
            f"misled_events={self.totals['misled_events']} "
            f"blocks_minted={self.totals['blocks_minted']}"
        )


def _run_trial(args: tuple) -> SimReport:
    cfg, seed = args
    return run_simulation(replace(cfg, seed=seed))


def run_trials(cfg: SimConfig, trials: int, jobs: int = 1) -> TrialsResult:
    """Independent seeded runs: trial i uses seed base+i; order-independent.
    At most min(jobs, trials) worker processes run, one contiguous chunk each."""
    if trials < 1:
        raise SimConfigError("trials", "must be >= 1")
    if jobs < 1:
        raise SimConfigError("jobs", "must be >= 1")
    seeds = [cfg.seed + i for i in range(trials)]
    workers = min(jobs, trials)
    if workers > 1:
        # imported here, so a single simulation never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunk = -(-trials // workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_trial, [(cfg, s) for s in seeds], chunksize=chunk))
    else:
        reports = [_run_trial((cfg, s)) for s in seeds]
    totals = {name: 0 for name in COUNTER_FIELDS}
    mins = {name: None for name in COUNTER_FIELDS}
    maxs = {name: None for name in COUNTER_FIELDS}
    rows = []
    honest_total = 0
    for rep in reports:
        honest_total += rep.honest_nodes
        row = {"seed": rep.seed}
        for name in COUNTER_FIELDS:
            value = getattr(rep, name)
            row[name] = value
            totals[name] += value
            mins[name] = value if mins[name] is None else min(mins[name], value)
            maxs[name] = value if maxs[name] is None else max(maxs[name], value)
        rows.append(row)
    means = {name: totals[name] / trials for name in COUNTER_FIELDS}
    fork_runs = sum(1 for rep in reports if rep.hard_forks > 0)
    return TrialsResult(
        trials=trials,
        base_seed=cfg.seed,
        totals=totals,
        means=means,
        mins=mins,
        maxs=maxs,
        hard_fork_runs=fork_runs,
        hard_fork_ci=wilson_interval(fork_runs, trials),
        misled_nodes=totals["misled_events"],
        honest_node_runs=honest_total,
        misled_ci=wilson_interval(totals["misled_events"], honest_total) if honest_total else None,
        rows=rows,
    )


def write_trials_csv(result: TrialsResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", *COUNTER_FIELDS])
        for row in result.rows:
            writer.writerow([row["seed"], *(row[name] for name in COUNTER_FIELDS)])


# ---------------------------------------------------------------------------
# miss-model Monte Carlo (abstract delivery model behind the misled bound)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MissModelResult:
    frequency: float
    misled: int
    trials: int
    exponent: int


def run_miss_model(params: SafetyParams, trials: int, seed: int = 0) -> MissModelResult:
    """Draw up to K Bernoulli deliveries per trial; misled iff all K are lost.

    Each trial draws from one seeded `random.Random` until the first delivery
    (a draw below r) and is misled only if all K draws are losses, so a run
    costs about trials * min(K, 1/r) interpreter-level draws: slow for a small
    r with a large K. This is the executable form of the delivery-independence
    assumption the closed formula rests on, kept separate from it so the two
    can be checked against each other.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = misled_exponent(params.m, params.n_c, params.l)
    draw = random.Random(seed).random
    r = params.r
    draws = range(k)
    misled = 0
    for _ in range(trials):
        for _ in draws:
            if draw() < r:
                break
        else:
            misled += 1
    return MissModelResult(misled / trials, misled, trials, k)


# ---------------------------------------------------------------------------
# witness-corruption Monte Carlo (real proposal/refusal/signing path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CorruptionResult:
    witnessed_rate: float
    witnessed: int
    attempts: int
    adversarial_slot_rate: float
    analytic: float
    m: int
    q: float
    n_keys: int


def witness_corruption_trials(
    attempts: int,
    q: float,
    m: int,
    n_keys: int = 200,
    seed: int = 0,
) -> CorruptionResult:
    """How often an invalid block gathers m signatures under collusion.

    A fixed adversarial proposer floats a genuinely invalid block (bad nonce).
    Each attempt samples m distinct witnesses uniformly from the eligible
    set; each sampled witness is adversarial with probability q (nodes are
    compromised independently). Honest witnesses run the real refusal path
    and never sign; adversarial ones sign blindly. The block counts as
    witnessed only when the real minting path accepts the certificate.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if m < 1 or m >= n_keys - 1:
        raise ValueError("need 1 <= m < n_keys - 1")
    analytic = pr_invalid_witnessed(q, m)
    rng = random.Random(seed)
    scheme = get_scheme("stub")
    keys = [scheme.keypair(b"corruption" + enc_u64(i)) for i in range(n_keys)]
    proposer_secret, proposer = keys[0]
    cfg = ChainConfig(tx_count_min=1, witness_m=m, confirm_depth=3)
    state = ChainState(cfg, scheme, fund_accounts({proposer: 10**9}))
    # a structurally fine block whose transaction can never validate: the
    # nonce is far in the future for the sender's account
    recipient = keys[1][1]
    bad_tx = make_transaction(
        scheme, proposer_secret, proposer, AccountBody(recipient, 1, 7777)
    )
    block = Block(state.genesis.block_hash, 1, proposer, (bad_tx,))
    eligible = [
        i
        for i in range(1, n_keys)
        if is_eligible_witness(proposer, keys[i][1], cfg)
    ]
    if len(eligible) < m:
        raise ValueError("eligible set smaller than m")
    witnessed = 0
    adversarial_slots = 0
    for _ in range(attempts):
        chosen = rng.sample(eligible, m)
        sigs = []
        complete = True
        for idx in chosen:
            secret, wid = keys[idx]
            if rng.random() < q:
                adversarial_slots += 1
                sigs.append(endorse(scheme, secret, wid, block))
            else:
                outcome = sign_witness(secret, wid, block, state, cfg, {})
                if not isinstance(outcome, Refusal):
                    raise AssertionError("honest witness endorsed an invalid block")
                complete = False
        if complete and mint_block(block, sigs, cfg, scheme) is not None:
            witnessed += 1
    return CorruptionResult(
        witnessed_rate=witnessed / attempts,
        witnessed=witnessed,
        attempts=attempts,
        adversarial_slot_rate=adversarial_slots / (attempts * m),
        analytic=analytic,
        m=m,
        q=q,
        n_keys=n_keys,
    )
