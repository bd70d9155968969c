"""Two-stage witness flow: eligibility, endorsement, refusals, minting."""

import pickle

import pytest

from scorechain.core_types import (
    AccountBody,
    Block,
    ChainConfig,
    MAX_HASH,
    SignatureScheme,
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
    WitnessSignature,
    distance,
    is_eligible_witness,
    mint_block,
    propose_block,
    sign_witness,
)

STUB = get_scheme("stub")
CFG = ChainConfig()  # witness_threshold = MAX_HASH: everyone eligible


def keys(n, tag=b"k"):
    return [STUB.keypair(tag + bytes([i])) for i in range(n)]


def fresh_state(parties, units=10**9, cfg=CFG):
    return ChainState(cfg, STUB, fund_accounts({nid: units for _, nid in parties}))


def payments(parties, count, nonce=0, scheme=STUB):
    txs = []
    for i in range(count):
        secret, sender = parties[i % len(parties)]
        recipient = parties[(i + 1) % len(parties)][1]
        txs.append(
            make_transaction(
                scheme, secret, sender, AccountBody(recipient, 1, nonce + i // len(parties))
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
    parties = keys(5)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    # a candidate is a plain block of user transactions; its hash is the digest
    bare = Block(candidate.parent_hash, candidate.height, candidate.proposer, candidate.transactions)
    assert candidate == bare
    secret, wid = parties[1]
    out = sign_witness(secret, wid, candidate, state, CFG, {})
    assert STUB.verify(wid, enc_u256(bare.block_hash), out.signature)


def test_witness_digest_ignores_coinbase():
    parties = keys(5)
    rule = make_coinbase_rule(RewardSchedule(50, 5), TxModel.ACCOUNT)
    state = ChainState(
        CFG, STUB, fund_accounts({nid: 10**9 for _, nid in parties}), coinbase_rule=rule
    )
    candidate = proposal(parties, state)
    sigs = gather_endorsements(candidate, state, parties[1:3])
    block = mint_block(candidate, sigs, CFG, STUB, coinbase_rule=rule)
    assert block is not None
    assert any(tx.is_coinbase() for tx in block.transactions)
    assert block.block_hash != candidate.block_hash
    # the user-transaction prefix rebuilds the candidate, whose hash the certificate signs
    user = tuple(tx for tx in block.transactions if not tx.is_coinbase())
    core = Block(block.parent_hash, block.height, block.proposer, user)
    assert core.block_hash == candidate.block_hash
    message = enc_u256(core.block_hash)
    assert all(STUB.verify(node, message, sig) for node, sig in block.witness_sigs)
    assert state.apply_block(block).status.name == "ACCEPTED"


# -- propose -----------------------------------------------------------------------


def test_propose_packs_valid_transactions():
    parties = keys(5)
    state = fresh_state(parties)
    _, proposer = parties[0]
    candidate = propose_block(proposer, state, payments(parties, 6), CFG)
    assert candidate is not None
    assert candidate.height == 1
    assert candidate.parent_hash == state.head.block_hash
    assert len(candidate.transactions) >= CFG.tx_count_min
    assert candidate.proposer == proposer
    assert candidate.witness_sigs == ()


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
    candidate = propose_block(parties[0][1], state, [a, b, future, forged] + filler, CFG, dead=dead)
    assert candidate is not None
    included = candidate.transactions
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
    candidate = propose_block(parties[0][1], state, payments(parties, 12), CFG, max_txs=5)
    assert candidate is not None
    assert len(candidate.transactions) == 5
    # without max_txs the cap is MAX_BLOCK_TXS, or the chain's minimum if larger
    candidate = propose_block(parties[0][1], state, payments(parties, 20), CFG)
    assert len(candidate.transactions) == MAX_BLOCK_TXS == 12
    wide = ChainConfig(tx_count_min=14)
    candidate = propose_block(parties[0][1], state, payments(parties, 20), wide)
    assert len(candidate.transactions) == 14


def test_propose_skips_coinbase_entries():
    parties = keys(5)
    state = fresh_state(parties)
    cb = coinbase_transaction(AccountBody(parties[0][1], 50, 0))
    dead = []
    candidate = propose_block(parties[0][1], state, [cb] + payments(parties, 4), CFG, dead=dead)
    assert candidate is not None
    assert cb not in candidate.transactions
    assert dead == [cb.tx_id]


# -- sign ------------------------------------------------------------------------


def proposal(parties, state, n=4):
    candidate = propose_block(parties[0][1], state, payments(parties, n), CFG)
    assert candidate is not None
    return candidate


def test_sign_witness_happy_path():
    parties = keys(5)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    secret, wid = parties[1]
    log = {}
    out = sign_witness(secret, wid, candidate, state, CFG, log)
    assert isinstance(out, WitnessSignature)
    assert out.witness == wid
    # a witness signs the candidate's hash
    assert STUB.verify(wid, enc_u256(candidate.block_hash), out.signature)
    assert log == {1: candidate.block_hash}


def test_sign_witness_refuses_self():
    parties = keys(5)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    secret, _ = parties[0]
    out = sign_witness(secret, candidate.proposer, candidate, state, CFG, {})
    assert isinstance(out, Refusal) and out.reason is RefusalReason.INELIGIBLE


def test_sign_witness_refuses_out_of_range_key():
    parties = keys(5)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    secret, wid = parties[1]
    tight = ChainConfig(witness_threshold=1)
    out = sign_witness(secret, wid, candidate, state, tight, {})
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
    out = sign_witness(wsecret, wid, block, state, CFG, {})
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
    out = sign_witness(wsecret, wid, block, state, CFG, {})
    assert isinstance(out, Refusal) and out.reason is RefusalReason.INVALID_BLOCK


def test_sign_witness_refuses_second_digest_at_height_but_resigns_same():
    parties = keys(6)
    state = fresh_state(parties)
    cand_a = proposal(parties, state)
    cand_b = propose_block(parties[5][1], state, payments(parties, 5), CFG)
    assert cand_b is not None and cand_b.block_hash != cand_a.block_hash
    secret, wid = parties[1]
    log = {}
    first = sign_witness(secret, wid, cand_a, state, CFG, log)
    assert isinstance(first, WitnessSignature)
    again = sign_witness(secret, wid, cand_a, state, CFG, log)
    assert isinstance(again, WitnessSignature)  # idempotent re-sign
    other = sign_witness(secret, wid, cand_b, state, CFG, log)
    assert isinstance(other, Refusal)
    assert other.reason is RefusalReason.ALREADY_WITNESSED_HEIGHT


def test_sign_witness_refuses_when_better_block_known(monkeypatch):
    parties = keys(5)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    secret, wid = parties[1]
    monkeypatch.setattr(state, "best_score_at", lambda height: block_score(candidate) - 1)
    out = sign_witness(secret, wid, candidate, state, CFG, {})
    assert isinstance(out, Refusal) and out.reason is RefusalReason.LOWER_SCORE_EXISTS


# -- endorsements sign when first read -------------------------------------------


class CountingScheme(SignatureScheme):
    """A plain scheme that counts its sign calls."""

    def __init__(self, plain):
        self.plain, self.name, self.signs = plain, plain.name, 0

    def keypair(self, seed):
        return self.plain.keypair(seed)

    def sign(self, secret, message):
        self.signs += 1
        return self.plain.sign(secret, message)

    def verify(self, public, message, signature):
        return self.plain.verify(public, message, signature)


def counted_proposal(name):
    scheme = CountingScheme(get_scheme(name))
    parties = [scheme.keypair(b"lazy" + bytes([i])) for i in range(5)]
    state = ChainState(CFG, scheme, fund_accounts({nid: 10**9 for _, nid in parties}))
    candidate = propose_block(parties[0][1], state, payments(parties, 4, scheme=scheme), CFG)
    assert candidate is not None
    return scheme, parties, state, candidate


@pytest.mark.parametrize("name", ["stub", "ed25519"])
def test_an_endorsement_signs_once_when_first_read(name):
    scheme, parties, state, candidate = counted_proposal(name)
    secret, wid = parties[1]
    signed_before = scheme.signs
    log = {}
    out = sign_witness(secret, wid, candidate, state, CFG, log)
    assert isinstance(out, WitnessSignature) and out.witness == wid
    # every check ran and the log is written, but nothing is signed yet
    assert log == {1: candidate.block_hash}
    assert scheme.signs == signed_before
    expected = scheme.plain.sign(secret, enc_u256(candidate.block_hash))
    assert out.signature == expected
    assert out.signature == expected
    assert scheme.signs == signed_before + 1


@pytest.mark.parametrize("name", ["stub", "ed25519"])
def test_unread_endorsements_are_never_signed(name):
    scheme, parties, state, candidate = counted_proposal(name)
    signed_before = scheme.signs
    sigs = gather_endorsements(candidate, state, parties[1:])
    assert len(sigs) == 4 and scheme.signs == signed_before
    # minting reads the first m valid ones only
    assert mint_block(candidate, sigs, CFG, scheme) is not None
    assert scheme.signs == signed_before + CFG.witness_m


def test_an_endorsement_never_shows_its_secret():
    scheme, parties, state, candidate = counted_proposal("ed25519")
    secret, wid = parties[1]
    out = sign_witness(secret, wid, candidate, state, CFG, {})
    shown = repr(out)
    assert secret.hex() not in shown and repr(secret) not in shown
    assert repr(out.signature) in shown
    # once read, the endorsement no longer holds the secret at all
    assert secret not in pickle.dumps(out)


def test_endorsements_are_equal_iff_witness_and_bytes_are():
    parties = keys(5)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    (secret, wid), (_, other) = parties[1], parties[2]
    message = enc_u256(candidate.block_hash)
    lazy = sign_witness(secret, wid, candidate, state, CFG, {})
    eager = WitnessSignature(wid, STUB.sign(secret, message))
    assert lazy == eager and hash(lazy) == hash(eager)
    assert lazy == sign_witness(secret, wid, candidate, state, CFG, {})
    assert lazy != WitnessSignature(other, eager.signature)
    assert lazy != WitnessSignature(wid, STUB.sign(secret, message + b"x"))
    assert lazy != (wid, eager.signature)


# -- mint ------------------------------------------------------------------------


def gather_endorsements(candidate, state, parties):
    sigs = []
    for secret, wid in parties:
        if wid == candidate.proposer:
            continue
        out = sign_witness(secret, wid, candidate, state, CFG, {})
        assert isinstance(out, WitnessSignature)
        sigs.append(out)
    return sigs


def test_mint_block_happy_path():
    parties = keys(5)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    sigs = gather_endorsements(candidate, state, parties[1:3])
    block = mint_block(candidate, sigs, CFG, STUB)
    assert block is not None
    assert block.block_hash == candidate.block_hash
    assert len(block.witness_sigs) == CFG.witness_m
    assert state.apply_block(block).status.name == "ACCEPTED"


def test_mint_block_returns_none_when_short():
    parties = keys(5)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    sigs = gather_endorsements(candidate, state, parties[1:2])
    assert mint_block(candidate, sigs, CFG, STUB) is None
    assert mint_block(candidate, [], CFG, STUB) is None


def test_mint_block_drops_bad_signatures():
    parties = keys(6)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    good = gather_endorsements(candidate, state, parties[1:3])
    psecret, _ = parties[0]
    junk = [
        WitnessSignature(candidate.proposer, STUB.sign(psecret, enc_u256(candidate.block_hash))),
        WitnessSignature(parties[3][1], b"garbage"),
        good[0],  # duplicate witness
    ]
    block = mint_block(candidate, junk + good, CFG, STUB)
    assert block is not None
    minted_ids = [node for node, _ in block.witness_sigs]
    assert candidate.proposer not in minted_ids
    assert parties[3][1] not in minted_ids
    assert len(minted_ids) == len(set(minted_ids)) == CFG.witness_m


def test_mint_block_drops_ineligible_witness():
    parties = keys(6)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    sigs = gather_endorsements(candidate, state, parties[1:4])
    _, proposer = parties[0]
    ranked = sorted(sigs, key=lambda ws: distance(proposer, ws.witness))
    # threshold admits only the two closest of the three signers
    threshold = distance(proposer, ranked[2].witness)
    cfg = ChainConfig(witness_threshold=threshold)
    block = mint_block(candidate, ranked, cfg, STUB)
    assert block is not None
    minted_ids = {node for node, _ in block.witness_sigs}
    assert ranked[2].witness not in minted_ids


def test_mint_block_appends_the_coinbase_rule_output():
    parties = keys(5)
    state = fresh_state(parties)
    candidate = proposal(parties, state)
    sigs = gather_endorsements(candidate, state, parties[1:3])
    rule = make_coinbase_rule(RewardSchedule(50, 5), TxModel.ACCOUNT)
    calls = []

    def spy(block, witnesses, system_nonce):
        calls.append((block, witnesses, system_nonce))
        return rule(block, witnesses, system_nonce)

    block = mint_block(candidate, sigs, CFG, STUB, coinbase_rule=spy, system_nonce=7)
    assert block is not None
    witnesses = tuple(node for node, _ in block.witness_sigs)
    assert calls == [(candidate, witnesses, 7)]  # once, with the kept witnesses
    assert block.transactions == candidate.transactions + rule(candidate, witnesses, 7)
    assert [tx.body.nonce for tx in block.transactions if tx.is_coinbase()] == [7, 8, 9]
    assert block.block_hash != candidate.block_hash  # coinbase extends the body
    # but the certificate still verifies against the candidate's hash
    message = enc_u256(candidate.block_hash)
    assert all(STUB.verify(node, message, sig) for node, sig in block.witness_sigs)
    assert mint_block(candidate, sigs, CFG, STUB).transactions == candidate.transactions
