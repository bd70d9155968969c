"""Two-stage minting: propose a block, then gather witness signatures.

Stage one collects enough valid, mutually compatible transactions to fill a
block and broadcasts that candidate, a plain Block without system
transactions or certificate. Stage two gathers signatures from eligible
witnesses (nodes whose key digest lies within a configured XOR distance of
the proposer's, a uniformly random subset of the network) and attaches the
first m valid ones as the block's certificate.

Witnesses sign u256(candidate.block_hash). Minting then appends the chain's
coinbase (incentive.make_coinbase_rule), if it has one, after the user
transactions, so a minted block is its candidate plus a certificate plus
the coinbase; ledgers split it back at the first system transaction and
recompute the coinbase rather than trust it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, MutableMapping, Sequence

from .core_types import (
    Block,
    ChainConfig,
    NodeId,
    SignatureScheme,
    Transaction,
    enc_u256,
)
from .incentive import CoinbaseRule
from .scoring import block_score

if TYPE_CHECKING:
    from .ledger import ChainState


def distance(a: NodeId, b: NodeId) -> int:
    """XOR metric over key digests: symmetric, zero iff same digest."""
    return a.key_digest ^ b.key_digest


def is_eligible_witness(proposer: NodeId, candidate: NodeId, cfg: ChainConfig) -> bool:
    """Eligibility predicate: strictly closer than the configured threshold.

    A node never witnesses its own proposal; asking about the proposer
    itself is a caller bug, not a quiet False.
    """
    if candidate == proposer:
        raise ValueError("a proposer cannot witness its own block")
    return distance(proposer, candidate) < cfg.witness_threshold


@dataclass(frozen=True, slots=True)
class WitnessSignature:
    witness: NodeId
    signature: bytes


class RefusalReason(Enum):
    INELIGIBLE = "ineligible"
    INVALID_BLOCK = "invalid_block"
    LOWER_SCORE_EXISTS = "lower_score_exists"
    ALREADY_WITNESSED_HEIGHT = "already_witnessed_height"


@dataclass(frozen=True, slots=True)
class Refusal:
    reason: RefusalReason


# height -> hash of the candidate this node signed there; one entry per height, ever
WitnessLog = MutableMapping[int, int]

# the most user transactions a proposal packs, unless the chain requires more
MAX_BLOCK_TXS = 12


def propose_block(
    proposer: NodeId,
    state: "ChainState",
    mempool: Iterable[Transaction],
    cfg: ChainConfig,
    max_txs: "int | None" = None,
    dead: "list[int] | None" = None,
) -> "Block | None":
    """Stage one: pack valid, non-conflicting transactions into a candidate.

    Transactions are validated sequentially against the head state, so a
    conflicting pair contributes exactly one member. Returns None when fewer
    than the required minimum survive, a normal and retryable outcome.

    The head clone the selected transactions ran on is the candidate's
    post-state. It is stored in state.snapshots under the candidate's
    block_hash, which commits to parent and transactions, so witnesses and
    the minted block (whose user transactions are the candidate) reuse it
    instead of running the transactions again.

    When dead is given, the same pass appends the ids of the transactions it
    saw that can never validate again (system transactions and ledger.DEAD_TX
    verdicts: a used nonce or input, a bad signature, or inputs whose fixed
    owner or amounts refuse the spend), so the caller can drop them from its
    mempool. Not-yet-valid ones (future nonce, missing funds) are kept.
    """
    from .ledger import DEAD_TX  # ledger imports this module

    indices = state.head_indices().clone()
    cap = max_txs if max_txs is not None else max(cfg.tx_count_min, MAX_BLOCK_TXS)
    selected: list[Transaction] = []
    for tx in mempool:
        if tx.is_coinbase():
            if dead is not None:
                dead.append(tx.tx_id)
            continue
        verdict = indices.validate_tx(tx, state.scheme)
        if verdict is None:
            indices.apply_tx(tx)
            selected.append(tx)
            if len(selected) >= cap:
                break
        elif dead is not None and verdict in DEAD_TX:
            dead.append(tx.tx_id)
    if len(selected) < cfg.tx_count_min:
        return None
    head = state.head
    candidate = Block(
        parent_hash=head.block_hash,
        height=head.height + 1,
        proposer=proposer,
        transactions=tuple(selected),
    )
    state.snapshots.setdefault(candidate.block_hash, indices)
    return candidate


def sign_witness(
    secret: bytes,
    node: NodeId,
    candidate: Block,
    state: "ChainState",
    cfg: ChainConfig,
    log: WitnessLog,
) -> "WitnessSignature | Refusal":
    """Stage two, witness side: endorse a candidate block or refuse.

    An honest witness signs u256(candidate.block_hash) only if it is
    eligible, the candidate validates against its own chain view, no known
    block at that height already beats the candidate's score, and it has not
    endorsed a different candidate at the same height. Re-signing the
    identical candidate is idempotent.
    """
    proposer, height = candidate.proposer, candidate.height
    if node == proposer or not is_eligible_witness(proposer, node, cfg):
        return Refusal(RefusalReason.INELIGIBLE)
    prior = log.get(height)
    if prior is not None and prior != candidate.block_hash:
        return Refusal(RefusalReason.ALREADY_WITNESSED_HEIGHT)
    if not state.candidate_block_valid(candidate):
        return Refusal(RefusalReason.INVALID_BLOCK)
    best = state.best_score_at(height)
    if best is not None and best < block_score(candidate):
        return Refusal(RefusalReason.LOWER_SCORE_EXISTS)
    log[height] = candidate.block_hash
    return WitnessSignature(node, state.scheme.sign(secret, enc_u256(candidate.block_hash)))


def mint_block(
    candidate: Block,
    sigs: Sequence[WitnessSignature],
    cfg: ChainConfig,
    scheme: SignatureScheme,
    coinbase_rule: "CoinbaseRule | None" = None,
    system_nonce: int = 0,
) -> "Block | None":
    """Finalize a candidate once m distinct valid endorsements exist.

    Bad entries are dropped, never fatal: duplicates by witness identity,
    the proposer itself, ineligible witnesses, and signatures that fail
    verification against u256(candidate.block_hash). Returns None while
    fewer than m survivors exist. The minted block carries the candidate's
    transactions followed by exactly what coinbase_rule returns for the kept
    witnesses; system_nonce is the system account's next nonce at the
    candidate's parent.
    """
    message = enc_u256(candidate.block_hash)
    proposer = candidate.proposer
    seen: set[NodeId] = set()
    kept: list[WitnessSignature] = []
    for ws in sigs:
        if ws.witness == proposer or ws.witness in seen:
            continue
        if not is_eligible_witness(proposer, ws.witness, cfg):
            continue
        if not scheme.verify(ws.witness, message, ws.signature):
            continue
        seen.add(ws.witness)
        kept.append(ws)
        if len(kept) == cfg.witness_m:
            break
    if len(kept) < cfg.witness_m:
        return None
    coinbase: tuple[Transaction, ...] = ()
    if coinbase_rule is not None:
        witnesses = tuple(ws.witness for ws in kept)
        coinbase = coinbase_rule(candidate, witnesses, system_nonce)
    return Block(
        parent_hash=candidate.parent_hash,
        height=candidate.height,
        proposer=proposer,
        transactions=candidate.transactions + coinbase,
        witness_sigs=tuple((ws.witness, ws.signature) for ws in kept),
    )
