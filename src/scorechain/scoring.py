"""Block scoring: the priority order among blocks competing at one height.

The score is a 256-bit integer; the lowest score wins. It is computed from the
inputs and outputs of every transaction in the block, taken in tx_id order, so
it does not depend on how the proposer ordered the list, on the proposer's
identity, or on the witness certificate. Exact score ties (hash collisions in
practice) fall back to the block hash, giving a strict total order.
"""

from __future__ import annotations

from .core_types import Block, enc_bytes, hash256, tx_inputs_bytes, tx_outputs_bytes


def score_preimage(block: Block) -> bytes:
    """Length-prefixed (inputs, outputs) byte pairs, sorted by tx_id."""
    txs = sorted(block.transactions, key=lambda tx: tx.tx_id)
    parts = []
    for tx in txs:
        parts.append(enc_bytes(tx_inputs_bytes(tx)))
        parts.append(enc_bytes(tx_outputs_bytes(tx)))
    return b"".join(parts)


def block_score(block: Block) -> int:
    """Score of a block with at least one transaction; lower wins.

    The empty block (genesis) has no defined score and never competes.
    """
    cached = block.score_cache
    if cached is not None:
        return cached
    if not block.transactions:
        raise ValueError("score undefined for a block with no transactions")
    value = hash256(score_preimage(block))
    object.__setattr__(block, "score_cache", value)
    return value


def sort_key(block: Block) -> tuple[int, int]:
    """(score, hash) sort key: lower score first, the lower block hash on a score tie."""
    return (block_score(block), block.block_hash)
