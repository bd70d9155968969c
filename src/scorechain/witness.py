"""Two-stage minting: propose a block, then gather witness signatures.

Stage one collects enough valid, mutually compatible transactions to fill a
block and broadcasts the candidate as a witness request. Stage two gathers
signatures from eligible witnesses (nodes whose key digest lies within a
configured XOR distance of the proposer's, a uniformly random subset of the
network) and attaches the first m valid ones as the block's certificate.

Witnesses sign a digest over the header and the proposal's user transactions.
When minting appends no system transactions this digest equals block_hash, so
an economically empty chain signs the block hash itself; with reward hooks the
digest still covers everything the witnesses actually attested to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, MutableMapping, Sequence

from .core_types import (
    Block,
    ChainConfig,
    NodeId,
    SignatureScheme,
    Transaction,
    block_core_bytes,
    enc_u256,
    hash256,
)
from .incentive import MintContext, MintHooks, NO_HOOKS
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


def witness_digest(block: Block) -> int:
    """The value witnesses sign: header + user transactions.

    System (coinbase) transactions are appended after signature collection,
    so they are excluded; for a block without them this is exactly
    block_hash.
    """
    user = block.user_transactions()
    if len(user) == len(block.transactions):
        return block.block_hash
    return hash256(
        block_core_bytes(block.parent_hash, block.height, block.proposer, user)
    )


def witness_message(block: Block) -> bytes:
    return enc_u256(witness_digest(block))


@dataclass(frozen=True, slots=True)
class WitnessRequest:
    """A candidate block circulated for endorsement."""

    block: Block
    digest: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", witness_digest(self.block))

    @property
    def proposer(self) -> NodeId:
        return self.block.proposer

    @property
    def block_hash(self) -> int:
        return self.block.block_hash

    @property
    def height(self) -> int:
        return self.block.height


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


# height -> digest this node signed there; one entry per height, ever
WitnessLog = MutableMapping[int, int]


def propose_block(
    proposer: NodeId,
    state: "ChainState",
    mempool: Iterable[Transaction],
    cfg: ChainConfig,
    max_txs: "int | None" = None,
    dead: "list[int] | None" = None,
) -> "WitnessRequest | None":
    """Stage one: pack valid, non-conflicting transactions into a candidate.

    Transactions are validated sequentially against the head state, so a
    conflicting pair contributes exactly one member. Returns None when fewer
    than the required minimum survive, a normal and retryable outcome.

    When dead is given, the same pass appends the ids of the transactions it
    saw that can never validate again (system transactions and ledger.DEAD_TX
    verdicts), so the caller can drop them from its mempool. Not-yet-valid
    ones (future nonce, missing funds) are kept.
    """
    from .ledger import DEAD_TX  # ledger imports this module

    indices = state.head_indices_clone()
    cap = max_txs if max_txs is not None else max(cfg.tx_count_min, 16)
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
    block = Block(
        parent_hash=head.block_hash,
        height=head.height + 1,
        proposer=proposer,
        transactions=tuple(selected),
    )
    return WitnessRequest(block)


def sign_witness(
    secret: bytes,
    candidate: NodeId,
    req: WitnessRequest,
    state: "ChainState",
    cfg: ChainConfig,
    log: WitnessLog,
) -> "WitnessSignature | Refusal":
    """Stage two, witness side: endorse a candidate block or refuse.

    An honest witness signs only if it is eligible, the block validates
    against its own chain view, no known block at that height already beats
    the candidate's score, and it has not endorsed a different block at the
    same height. Re-signing the identical candidate is idempotent.
    """
    if candidate == req.proposer:
        return Refusal(RefusalReason.INELIGIBLE)
    if not is_eligible_witness(req.proposer, candidate, cfg):
        return Refusal(RefusalReason.INELIGIBLE)
    prior = log.get(req.height)
    if prior is not None and prior != req.digest:
        return Refusal(RefusalReason.ALREADY_WITNESSED_HEIGHT)
    if not state.candidate_block_valid(req.block):
        return Refusal(RefusalReason.INVALID_BLOCK)
    best = state.best_score_at(req.height)
    if best is not None and best < block_score(req.block):
        return Refusal(RefusalReason.LOWER_SCORE_EXISTS)
    log[req.height] = req.digest
    return WitnessSignature(candidate, state.scheme.sign(secret, enc_u256(req.digest)))


def mint_block(
    req: WitnessRequest,
    sigs: Sequence[WitnessSignature],
    cfg: ChainConfig,
    scheme: SignatureScheme,
    hooks: MintHooks = NO_HOOKS,
    system_nonce: int = 0,
) -> "Block | None":
    """Finalize a candidate once m distinct valid endorsements exist.

    Bad entries are dropped, never fatal: duplicates by witness identity,
    the proposer itself, ineligible witnesses, and signatures that fail
    verification. Returns None while fewer than m survivors exist.
    """
    message = enc_u256(req.digest)
    seen: set[NodeId] = set()
    kept: list[WitnessSignature] = []
    for ws in sigs:
        if ws.witness == req.proposer or ws.witness in seen:
            continue
        if not is_eligible_witness(req.proposer, ws.witness, cfg):
            continue
        if not scheme.verify(ws.witness, message, ws.signature):
            continue
        seen.add(ws.witness)
        kept.append(ws)
        if len(kept) == cfg.witness_m:
            break
    if len(kept) < cfg.witness_m:
        return None
    witnesses = tuple(ws.witness for ws in kept)
    ctx = MintContext(req.block, witnesses, cfg, system_nonce)
    appended: list[Transaction] = []
    for hook in hooks.before:
        appended.extend(hook(ctx))
    final = Block(
        parent_hash=req.block.parent_hash,
        height=req.block.height,
        proposer=req.block.proposer,
        transactions=req.block.transactions + tuple(appended),
        witness_sigs=tuple((ws.witness, ws.signature) for ws in kept),
    )
    for hook in hooks.after:
        hook(final, ctx)
    return final
