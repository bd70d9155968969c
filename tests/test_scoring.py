"""Block scoring and the total order among same-height blocks."""

import hashlib
import random
import struct
from dataclasses import replace

import pytest

from scorechain.core_types import (
    AccountBody,
    Block,
    get_scheme,
    make_transaction,
    tx_inputs_bytes,
    tx_outputs_bytes,
)
from scorechain.scoring import block_score, score_preimage, sort_key

STUB = get_scheme("stub")


def make_txs(count, tag=b"t"):
    txs = []
    for i in range(count):
        secret, sender = STUB.keypair(tag + bytes([i]))
        _, recipient = STUB.keypair(b"r" + bytes([i]))
        txs.append(make_transaction(STUB, secret, sender, AccountBody(recipient, 1 + i, 0)))
    return txs


def make_block(txs, parent=1, height=1, proposer_tag=b"p"):
    _, proposer = STUB.keypair(proposer_tag)
    return Block(parent, height, proposer, tuple(txs))


def test_score_matches_independent_recomputation():
    block = make_block(make_txs(4))
    # oracle: sha256 over length-prefixed (inputs, outputs) pairs in tx_id order
    parts = []
    for tx in sorted(block.transactions, key=lambda t: t.tx_id):
        for chunk in (tx_inputs_bytes(tx), tx_outputs_bytes(tx)):
            parts.append(struct.pack(">I", len(chunk)) + chunk)
    expected = int(hashlib.sha256(b"".join(parts)).hexdigest(), 16)
    assert block_score(block) == expected


def test_score_independent_of_tx_order_and_proposer():
    txs = make_txs(5)
    a = make_block(txs)
    rng = random.Random(1)
    for _ in range(5):
        shuffled = txs[:]
        rng.shuffle(shuffled)
        b = make_block(shuffled, proposer_tag=b"someone-else")
        assert block_score(b) == block_score(a)
        assert score_preimage(b) == score_preimage(a)


def test_score_changes_with_tx_content():
    assert block_score(make_block(make_txs(4))) != block_score(
        make_block(make_txs(4, tag=b"u"))
    )


def test_score_ignores_witnesses_and_header():
    txs = make_txs(4)
    a = make_block(txs)
    b = make_block(txs, parent=2, height=1)
    secret, wid = STUB.keypair(b"w")
    endorsed = replace(a, witness_sigs=((wid, STUB.sign(secret, b"x")),))
    assert block_score(a) == block_score(b) == block_score(endorsed)


def test_empty_block_has_no_score():
    with pytest.raises(ValueError):
        block_score(make_block([]))


def test_compare_blocks_lower_score_wins():
    a, b = make_block(make_txs(4)), make_block(make_txs(4, tag=b"u"))
    assert block_score(a) != block_score(b)
    winner = a if block_score(a) < block_score(b) else b
    # whichever comes first, the lower score sorts first
    assert min(a, b, key=sort_key) is winner
    assert min(b, a, key=sort_key) is winner


def test_score_tie_falls_back_to_block_hash():
    # same tx set on different parents: equal scores, distinct hashes
    txs = make_txs(4)
    a, b = make_block(txs, parent=1), make_block(txs, parent=2)
    assert block_score(a) == block_score(b)
    winner = a if a.block_hash < b.block_hash else b
    assert min(a, b, key=sort_key) is winner
    assert min(b, a, key=sort_key) is winner


def test_sort_key_realizes_compare_order():
    rng = random.Random(2)
    blocks = [make_block(make_txs(4, tag=bytes([i])), parent=rng.randrange(4)) for i in range(8)]
    ranked = sorted(blocks, key=sort_key)
    for earlier, later in zip(ranked, ranked[1:]):
        if earlier.block_hash != later.block_hash:
            low, high = block_score(earlier), block_score(later)
            assert low < high or (low == high and earlier.block_hash < later.block_hash)


def test_score_cache_is_filled_once():
    block = make_block(make_txs(4))
    assert block.score_cache is None
    first = block_score(block)
    assert block.score_cache == first
    assert block_score(block) == first
