"""Coinbase construction and the one coinbase rule, for both value models."""

import pytest

from scorechain.core_types import (
    AccountBody,
    Block,
    ChainConfig,
    COINBASE_INDEX,
    Outpoint,
    TxModel,
    TxOutput,
    UtxoBody,
    enc_u256,
    get_scheme,
    make_transaction,
)
from scorechain.incentive import (
    RewardSchedule,
    build_coinbase,
    coinbase_credits,
    make_coinbase_rule,
)
from scorechain.ledger import ApplyStatus, BlockReject, ChainState, fund_accounts, fund_utxos
from scorechain.witness import WitnessSignature, mint_block

STUB = get_scheme("stub")


def ids(n, tag=b"inc"):
    return [STUB.keypair(tag + bytes([i]))[1] for i in range(n)]


# -- credits ----------------------------------------------------------------------


def test_credits_order_proposer_first():
    proposer, w1, w2 = ids(3)
    credits = coinbase_credits(proposer, [w1, w2], RewardSchedule(50, 5))
    assert credits == ((proposer, 50), (w1, 5), (w2, 5))


def test_credits_drop_zero_amounts():
    proposer, w1 = ids(2)
    assert coinbase_credits(proposer, [w1], RewardSchedule(0, 5)) == ((w1, 5),)
    assert coinbase_credits(proposer, [w1], RewardSchedule(50, 0)) == ((proposer, 50),)
    assert coinbase_credits(proposer, [w1], RewardSchedule(0, 0)) == ()


def test_negative_rewards_rejected():
    with pytest.raises(ValueError):
        RewardSchedule(-1, 5)
    with pytest.raises(ValueError):
        RewardSchedule(5, -1)


# -- coinbase transactions -----------------------------------------------------------


def test_account_coinbase_uses_consecutive_system_nonces():
    proposer, w1, w2 = ids(3)
    txs = build_coinbase(TxModel.ACCOUNT, 7, proposer, [w1, w2], RewardSchedule(50, 5), 3)
    assert len(txs) == 3
    assert all(tx.is_coinbase() for tx in txs)
    bodies = [tx.body for tx in txs]
    assert [(b.recipient, b.amount) for b in bodies] == [
        (proposer, 50),
        (w1, 5),
        (w2, 5),
    ]
    assert [b.nonce for b in bodies] == [3, 4, 5]


def test_utxo_coinbase_is_one_tx_with_height_marker():
    proposer, w1, w2 = ids(3)
    (tx,) = build_coinbase(TxModel.UTXO, 9, proposer, [w1, w2], RewardSchedule(50, 5), 0)
    assert tx.is_coinbase()
    body = tx.body
    assert isinstance(body, UtxoBody)
    assert body.inputs == (Outpoint(9, COINBASE_INDEX),)
    assert body.outputs == (TxOutput(proposer, 50), TxOutput(w1, 5), TxOutput(w2, 5))
    other = build_coinbase(TxModel.UTXO, 10, proposer, [w1, w2], RewardSchedule(50, 5), 0)
    assert other[0].tx_id != tx.tx_id  # height marker keeps ids distinct


def test_zero_schedule_builds_nothing():
    proposer, w1 = ids(2)
    assert build_coinbase(TxModel.ACCOUNT, 1, proposer, [w1], RewardSchedule(0, 0), 0) == ()
    assert build_coinbase(TxModel.UTXO, 1, proposer, [w1], RewardSchedule(0, 0), 0) == ()


# -- the rule on both sides of minting -------------------------------------------------------


def funded_state(model, parties, **kwargs):
    cfg = ChainConfig(tx_count_min=1)
    if model is TxModel.ACCOUNT:
        genesis = fund_accounts({nid: 100 for _, nid in parties})
    else:
        genesis = fund_utxos({nid: [100] for _, nid in parties})
    return ChainState(cfg, STUB, genesis, **kwargs)


def one_payment(model, state, parties):
    (secret, sender), (_, recipient) = parties[0], parties[1]
    if model is TxModel.ACCOUNT:
        body = AccountBody(recipient, 10, 0)
    else:
        (grant,) = [op for op, out in state.head_indices().utxos.items() if out.owner == sender]
        body = UtxoBody((grant,), (TxOutput(recipient, 100),))
    return make_transaction(STUB, secret, sender, body)


def mint_paid(model, parties):
    """A one-payment reward block minted by parties[0], and a ledger under its rule."""
    rule = make_coinbase_rule(RewardSchedule(50, 5), model)
    ruled = funded_state(model, parties, coinbase_rule=rule)
    payment = one_payment(model, ruled, parties)
    bare = Block(ruled.genesis.block_hash, 1, parties[0][1], (payment,))
    message = enc_u256(bare.block_hash)
    sigs = [WitnessSignature(nid, STUB.sign(secret, message)) for secret, nid in parties[1:3]]
    system_nonce = ruled.system_nonce_at(ruled.genesis.block_hash)
    block = mint_block(bare, sigs, ruled.cfg, STUB, coinbase_rule=rule, system_nonce=system_nonce)
    witnesses = (parties[1][1], parties[2][1])
    assert block.transactions == (payment,) + rule(bare, witnesses, 0)
    return block, ruled


def test_minted_coinbase_is_accepted_only_under_the_same_rule():
    parties = [STUB.keypair(b"rt" + bytes([i])) for i in range(4)]
    for model in (TxModel.ACCOUNT, TxModel.UTXO):
        block, ruled = mint_paid(model, parties)
        assert ruled.apply_block(block).status is ApplyStatus.ACCEPTED
        rejected = funded_state(model, parties).apply_block(block)
        assert (rejected.status, rejected.reason) == (ApplyStatus.REJECTED, BlockReject.BAD_COINBASE)


def test_minted_coinbase_must_trail_the_user_transactions():
    # moving the coinbase ahead of the payment changes the block hash but not
    # the candidate the certificate covers; one endorsement must not yield
    # two valid siblings
    parties = [STUB.keypair(b"rt" + bytes([i])) for i in range(4)]
    for model in (TxModel.ACCOUNT, TxModel.UTXO):
        block, ruled = mint_paid(model, parties)
        payment, *coinbase = block.transactions
        moved = Block(
            block.parent_hash, block.height, block.proposer, (*coinbase, payment), block.witness_sigs
        )
        rejected = ruled.apply_block(moved)
        assert (rejected.status, rejected.reason) == (ApplyStatus.REJECTED, BlockReject.BAD_COINBASE)
        assert ruled.head is ruled.genesis
        assert ruled.apply_block(block).status is ApplyStatus.ACCEPTED


def test_rule_tracks_witness_set_and_height():
    proposer, w1, w2 = ids(3)
    rule = make_coinbase_rule(RewardSchedule(50, 5), TxModel.ACCOUNT)
    base = rule(Block(1, 4, proposer, ()), (w1, w2), 0)
    swapped = rule(Block(1, 4, proposer, ()), (w2, w1), 0)
    assert base != swapped  # order of witnesses is part of the contract
    taller = rule(Block(1, 5, proposer, ()), (w1, w2), 0)
    assert [tx.body.recipient for tx in taller] == [tx.body.recipient for tx in base]
