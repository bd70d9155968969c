"""Two-stage witness flow: eligibility, endorsement, refusals, minting."""

import pytest

from scorechain.core_types import (
    AccountBody,
    Block,
    ChainConfig,
    MAX_HASH,
    Transaction,
    coinbase_transaction,
    enc_u256,
    get_scheme,
    make_transaction,
)
from scorechain.incentive import RewardSchedule, make_coinbase_rule
from scorechain.core_types import TxModel
from scorechain.ledger import ChainState, fund_accounts
from scorechain.scoring import block_score
from scorechain.witness import (
    MAX_BLOCK_TXS,
    Refusal,
    RefusalReason,
    WitnessRequest,
    WitnessSignature,
    distance,
    is_eligible_witness,
    mint_block,
    propose_block,
    sign_witness,
    witness_digest,
    witness_message,
)

STUB = get_scheme("stub")
CFG = ChainConfig()  # witness_threshold = MAX_HASH: everyone eligible


def keys(n, tag=b"k"):
    return [STUB.keypair(tag + bytes([i])) for i in range(n)]


def fresh_state(parties, units=10**9, cfg=CFG):
    return ChainState(cfg, STUB, fund_accounts({nid: units for _, nid in parties}))


def payments(parties, count, nonce=0):
    txs = []
    for i in range(count):
        secret, sender = parties[i % len(parties)]
        recipient = parties[(i + 1) % len(parties)][1]
        txs.append(
            make_transaction(
                STUB, secret, sender, AccountBody(recipient, 1, nonce + i // len(parties))
            )
        )
    return txs


# -- eligibility ----------------------------------------------------------------


def test_distance_is_xor_of_key_digests():
    (_, a), (_, b) = keys(2)
    assert distance(a, b) == a.key_digest ^ b.key_digest
    assert distance(a, b) == distance(b, a)
    assert distance(a, a) == 0


def test_eligibility_threshold_is_strict():
    (_, a), (_, b) = keys(2)
    d = distance(a, b)
    assert is_eligible_witness(a, b, ChainConfig(witness_threshold=d + 1))
    assert not is_eligible_witness(a, b, ChainConfig(witness_threshold=d))


def test_self_witness_raises():
    (_, a), _ = keys(2)
    with pytest.raises(ValueError):
        is_eligible_witness(a, a, CFG)


# -- the digest witnesses sign ----------------------------------------------------


def test_witness_digest_equals_block_hash_without_coinbase():
    parties = keys(4)
    _, proposer = parties[0]
    block = Block(1, 1, proposer, tuple(payments(parties, 4)))
    assert witness_digest(block) == block.block_hash
    assert witness_message(block) == enc_u256(block.block_hash)


def test_witness_digest_ignores_coinbase():
    parties = keys(4)
    _, proposer = parties[0]
    user = tuple(payments(parties, 4))
    bare = Block(1, 1, proposer, user)
    cb = coinbase_transaction(AccountBody(proposer, 50, 0))
    padded = Block(1, 1, proposer, user + (cb,))
    assert witness_digest(padded) == witness_digest(bare) == bare.block_hash
    assert padded.block_hash != bare.block_hash


# -- propose -----------------------------------------------------------------------


def test_propose_packs_valid_transactions():
    parties = keys(5)
    state = fresh_state(parties)
    _, proposer = parties[0]
    req = propose_block(proposer, state, payments(parties, 6), CFG)
    assert req is not None
    assert req.height == 1
    assert req.block.parent_hash == state.head.block_hash
    assert len(req.block.transactions) >= CFG.tx_count_min
    assert req.proposer == proposer


def test_propose_drops_conflicting_and_invalid():
    parties = keys(5)
    state = fresh_state(parties)
    secret, sender = parties[1]
    _, recipient = parties[2]
    a = make_transaction(STUB, secret, sender, AccountBody(recipient, 1, 0))
    b = make_transaction(STUB, secret, sender, AccountBody(recipient, 2, 0))  # same nonce
    future = make_transaction(STUB, secret, sender, AccountBody(recipient, 1, 5))
    forged = Transaction(sender, AccountBody(recipient, 3, 1), bytes(32))
    filler = payments(parties[2:], 3)
    dead = []
    req = propose_block(parties[0][1], state, [a, b, future, forged] + filler, CFG, dead=dead)
    assert req is not None
    included = req.block.transactions
    assert a in included and b not in included and future not in included
    assert forged not in included
    # a reused nonce and a bad signature are dead; a future nonce may yet apply
    assert dead == [b.tx_id, forged.tx_id]


def test_propose_returns_none_when_short():
    parties = keys(5)
    state = fresh_state(parties)
    assert propose_block(parties[0][1], state, payments(parties, 2), CFG) is None
    assert propose_block(parties[0][1], state, [], CFG) is None


def test_propose_respects_max_txs():
    parties = keys(5)
    state = fresh_state(parties)
    req = propose_block(parties[0][1], state, payments(parties, 12), CFG, max_txs=5)
    assert req is not None
    assert len(req.block.transactions) == 5
    # without max_txs the cap is MAX_BLOCK_TXS, or the chain's minimum if larger
    req = propose_block(parties[0][1], state, payments(parties, 20), CFG)
    assert len(req.block.transactions) == MAX_BLOCK_TXS == 12
    wide = ChainConfig(tx_count_min=14)
    req = propose_block(parties[0][1], state, payments(parties, 20), wide)
    assert len(req.block.transactions) == 14


def test_propose_skips_coinbase_entries():
    parties = keys(5)
    state = fresh_state(parties)
    cb = coinbase_transaction(AccountBody(parties[0][1], 50, 0))
    dead = []
    req = propose_block(parties[0][1], state, [cb] + payments(parties, 4), CFG, dead=dead)
    assert req is not None
    assert cb not in req.block.transactions
    assert dead == [cb.tx_id]


# -- sign ------------------------------------------------------------------------


def proposal(parties, state, n=4):
    req = propose_block(parties[0][1], state, payments(parties, n), CFG)
    assert req is not None
    return req


def test_sign_witness_happy_path():
    parties = keys(5)
    state = fresh_state(parties)
    req = proposal(parties, state)
    secret, wid = parties[1]
    log = {}
    out = sign_witness(secret, wid, req, state, CFG, log)
    assert isinstance(out, WitnessSignature)
    assert out.witness == wid
    assert STUB.verify(wid, witness_message(req.block), out.signature)
    assert log == {1: req.digest}


def test_sign_witness_refuses_self():
    parties = keys(5)
    state = fresh_state(parties)
    req = proposal(parties, state)
    secret, _ = parties[0]
    out = sign_witness(secret, req.proposer, req, state, CFG, {})
    assert isinstance(out, Refusal) and out.reason is RefusalReason.INELIGIBLE


def test_sign_witness_refuses_out_of_range_key():
    parties = keys(5)
    state = fresh_state(parties)
    req = proposal(parties, state)
    secret, wid = parties[1]
    tight = ChainConfig(witness_threshold=1)
    out = sign_witness(secret, wid, req, state, tight, {})
    assert isinstance(out, Refusal) and out.reason is RefusalReason.INELIGIBLE


def test_sign_witness_refuses_invalid_block():
    parties = keys(5)
    state = fresh_state(parties)
    secret, sender = parties[1]
    _, recipient = parties[2]
    bad = make_transaction(STUB, secret, sender, AccountBody(recipient, 1, 999))
    good = payments(parties[2:], 3)
    _, proposer = parties[0]
    block = Block(state.head.block_hash, 1, proposer, tuple(good + [bad]))
    wsecret, wid = parties[3]
    out = sign_witness(wsecret, wid, WitnessRequest(block), state, CFG, {})
    assert isinstance(out, Refusal) and out.reason is RefusalReason.INVALID_BLOCK


def test_sign_witness_refuses_candidate_carrying_a_coinbase():
    # minting appends the coinbase; a candidate that already has one can
    # never become an acceptable block
    parties = keys(5)
    state = fresh_state(parties)
    _, proposer = parties[0]
    grant = coinbase_transaction(AccountBody(proposer, 10**12, 0))
    block = Block(state.head.block_hash, 1, proposer, tuple(payments(parties, 4)) + (grant,))
    wsecret, wid = parties[3]
    out = sign_witness(wsecret, wid, WitnessRequest(block), state, CFG, {})
    assert isinstance(out, Refusal) and out.reason is RefusalReason.INVALID_BLOCK


def test_sign_witness_refuses_second_digest_at_height_but_resigns_same():
    parties = keys(6)
    state = fresh_state(parties)
    req_a = proposal(parties, state)
    req_b = propose_block(parties[5][1], state, payments(parties, 5), CFG)
    assert req_b is not None and req_b.digest != req_a.digest
    secret, wid = parties[1]
    log = {}
    first = sign_witness(secret, wid, req_a, state, CFG, log)
    assert isinstance(first, WitnessSignature)
    again = sign_witness(secret, wid, req_a, state, CFG, log)
    assert isinstance(again, WitnessSignature)  # idempotent re-sign
    other = sign_witness(secret, wid, req_b, state, CFG, log)
    assert isinstance(other, Refusal)
    assert other.reason is RefusalReason.ALREADY_WITNESSED_HEIGHT


def test_sign_witness_refuses_when_better_block_known(monkeypatch):
    parties = keys(5)
    state = fresh_state(parties)
    req = proposal(parties, state)
    secret, wid = parties[1]
    monkeypatch.setattr(state, "best_score_at", lambda height: block_score(req.block) - 1)
    out = sign_witness(secret, wid, req, state, CFG, {})
    assert isinstance(out, Refusal) and out.reason is RefusalReason.LOWER_SCORE_EXISTS


# -- mint ------------------------------------------------------------------------


def endorse(req, state, parties):
    sigs = []
    for secret, wid in parties:
        if wid == req.proposer:
            continue
        out = sign_witness(secret, wid, req, state, CFG, {})
        assert isinstance(out, WitnessSignature)
        sigs.append(out)
    return sigs


def test_mint_block_happy_path():
    parties = keys(5)
    state = fresh_state(parties)
    req = proposal(parties, state)
    sigs = endorse(req, state, parties[1:3])
    block = mint_block(req, sigs, CFG, STUB)
    assert block is not None
    assert block.block_hash == req.block_hash
    assert len(block.witness_sigs) == CFG.witness_m
    assert state.apply_block(block).status.name == "ACCEPTED"


def test_mint_block_returns_none_when_short():
    parties = keys(5)
    state = fresh_state(parties)
    req = proposal(parties, state)
    sigs = endorse(req, state, parties[1:2])
    assert mint_block(req, sigs, CFG, STUB) is None
    assert mint_block(req, [], CFG, STUB) is None


def test_mint_block_drops_bad_signatures():
    parties = keys(6)
    state = fresh_state(parties)
    req = proposal(parties, state)
    good = endorse(req, state, parties[1:3])
    psecret, _ = parties[0]
    junk = [
        WitnessSignature(req.proposer, STUB.sign(psecret, witness_message(req.block))),
        WitnessSignature(parties[3][1], b"garbage"),
        good[0],  # duplicate witness
    ]
    block = mint_block(req, junk + good, CFG, STUB)
    assert block is not None
    minted_ids = [node for node, _ in block.witness_sigs]
    assert req.proposer not in minted_ids
    assert parties[3][1] not in minted_ids
    assert len(minted_ids) == len(set(minted_ids)) == CFG.witness_m


def test_mint_block_drops_ineligible_witness():
    parties = keys(6)
    state = fresh_state(parties)
    req = proposal(parties, state)
    sigs = endorse(req, state, parties[1:4])
    _, proposer = parties[0]
    ranked = sorted(sigs, key=lambda ws: distance(proposer, ws.witness))
    # threshold admits only the two closest of the three signers
    threshold = distance(proposer, ranked[2].witness)
    cfg = ChainConfig(witness_threshold=threshold)
    block = mint_block(req, ranked, cfg, STUB)
    assert block is not None
    minted_ids = {node for node, _ in block.witness_sigs}
    assert ranked[2].witness not in minted_ids


def test_mint_block_appends_the_coinbase_rule_output():
    parties = keys(5)
    state = fresh_state(parties)
    req = proposal(parties, state)
    sigs = endorse(req, state, parties[1:3])
    rule = make_coinbase_rule(RewardSchedule(50, 5), TxModel.ACCOUNT)
    calls = []

    def spy(block, witnesses, system_nonce):
        calls.append((block, witnesses, system_nonce))
        return rule(block, witnesses, system_nonce)

    block = mint_block(req, sigs, CFG, STUB, coinbase_rule=spy, system_nonce=7)
    assert block is not None
    witnesses = tuple(node for node, _ in block.witness_sigs)
    assert calls == [(req.block, witnesses, 7)]  # once, with the kept witnesses
    assert block.transactions == req.block.transactions + rule(req.block, witnesses, 7)
    assert [tx.body.nonce for tx in block.transactions if tx.is_coinbase()] == [7, 8, 9]
    assert block.block_hash != req.block_hash  # coinbase extends the body
    assert witness_digest(block) == req.digest  # but not the witnessed digest
    assert mint_block(req, sigs, CFG, STUB).transactions == req.block.transactions
