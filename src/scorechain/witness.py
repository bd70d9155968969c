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

An endorsement's signature is computed when it is first read (endorse):
minting reads only the first m valid ones, and the rest of a network's
endorsements arrive after the mint, reach an expired proposal or are lost.
Signing is deterministic (SignatureScheme.sign), so a signature computed
late has the bytes an eager one would have had. Until it is read, an
endorsement holds its signer's secret, in memory only: endorsements have no
codec, and simnet.run_trials pickles reports, never nodes or messages.
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
    certify,
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
    if candidate.public_key == proposer.public_key:
        raise ValueError("a proposer cannot witness its own block")
    return distance(proposer, candidate) < cfg.witness_threshold


class WitnessSignature:
    """A witness's signature over u256(candidate.block_hash).

    WitnessSignature(witness, signature) holds explicit bytes. endorse()
    builds one that signs when .signature is first read, keeps the bytes and
    drops the secret it held until then; the bytes are those an eager sign
    gives, since signing is deterministic. Two endorsements are equal iff
    their witnesses and signature bytes are; the repr shows just those two.
    """

    __slots__ = ("witness", "_signature", "_signer")

    def __init__(self, witness: NodeId, signature: bytes) -> None:
        self.witness = witness
        self._signature: "bytes | None" = signature
        self._signer: "tuple[SignatureScheme, bytes, bytes] | None" = None

    @property
    def signature(self) -> bytes:
        signature = self._signature
        if signature is None:
            scheme, secret, message = self._signer
            signature = self._signature = scheme.sign(secret, message)
            self._signer = None
        return signature

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WitnessSignature)
            and self.witness == other.witness
            and self.signature == other.signature
        )

    def __hash__(self) -> int:
        return hash((self.witness, self.signature))

    def __repr__(self) -> str:
        return f"WitnessSignature(witness={self.witness!r}, signature={self.signature!r})"


def endorse(
    scheme: SignatureScheme, secret: bytes, witness: NodeId, candidate: Block
) -> WitnessSignature:
    """witness's endorsement of candidate, signed when first read."""
    endorsement = object.__new__(WitnessSignature)
    endorsement.witness = witness
    endorsement._signature = None
    endorsement._signer = (scheme, secret, enc_u256(candidate.block_hash))
    return endorsement


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

    Transactions are validated and applied one by one on a clone of the head
    state, so a conflicting pair contributes exactly one member. Returns None
    when fewer than the required minimum survive, a normal and retryable
    outcome.

    The head clone the selected transactions ran on is the candidate's
    post-state. state.snapshots.put files it under the candidate's
    block_hash, which commits to parent and transactions, so witnesses and
    the minted block (whose user transactions are the candidate) reuse it
    instead of running the transactions again.

    When dead is given, the same pass appends the ids of the transactions it
    saw that can never validate again (the ledger.DEAD_TX verdicts: a system
    transaction, a used nonce or input, a bad signature, or inputs whose
    fixed owner or amounts refuse the spend), so the caller can drop them
    from its mempool. Not-yet-valid ones (future nonce, missing funds) are
    kept.
    """
    if dead is not None:
        from .ledger import DEAD_TX  # ledger imports this module

    indices = state.head_indices().clone()
    cap = max_txs if max_txs is not None else max(cfg.tx_count_min, MAX_BLOCK_TXS)
    selected: list[Transaction] = []
    for tx in mempool:
        verdict = indices.validate_tx(tx, state.scheme)
        if verdict is None:
            selected.append(tx)
            if len(selected) >= cap:
                break
        elif dead is not None and verdict in DEAD_TX:
            dead.append(tx.tx_id)
    if len(selected) < cfg.tx_count_min:
        return None
    head = state.head
    candidate = Block(head.block_hash, head.height + 1, proposer, tuple(selected))
    state.snapshots.put(candidate.height, candidate.block_hash, indices)
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
    identical candidate is idempotent. Every check and the log entry happen
    here; only the signature itself waits until it is read (endorse).
    """
    proposer, height = candidate.proposer, candidate.height
    if node.public_key == proposer.public_key or not is_eligible_witness(proposer, node, cfg):
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
    return endorse(state.scheme, secret, node, candidate)


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
    # public keys, not NodeIds: bytes compare and hash without a Python call
    seen = {proposer.public_key}
    certificate: list[tuple[NodeId, bytes]] = []
    for ws in sigs:
        if ws.witness.public_key in seen:
            continue
        if not is_eligible_witness(proposer, ws.witness, cfg):
            continue
        if not scheme.verify(ws.witness, message, ws.signature):
            continue
        seen.add(ws.witness.public_key)
        certificate.append((ws.witness, ws.signature))
        if len(certificate) == cfg.witness_m:
            break
    if len(certificate) < cfg.witness_m:
        return None
    coinbase: tuple[Transaction, ...] = ()
    if coinbase_rule is not None:
        witnesses = tuple(node for node, _ in certificate)
        coinbase = coinbase_rule(candidate, witnesses, system_nonce)
    if not coinbase:
        return certify(candidate, certificate)
    transactions = candidate.transactions + coinbase
    return Block(candidate.parent_hash, candidate.height, proposer, transactions, certificate)
