"""Ledger behavior: transaction verdicts, block admission, forks, persistence."""

import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from scorechain import ledger, simnet
from scorechain.core_types import (
    AccountBody,
    Block,
    COINBASE_INDEX,
    ChainConfig,
    Outpoint,
    SerializationError,
    SYSTEM_ID,
    TxModel,
    TxOutput,
    UtxoBody,
    coinbase_transaction,
    enc_u64,
    enc_u256,
    get_scheme,
    hash256,
    make_transaction,
)
from scorechain.incentive import RewardSchedule, make_coinbase_rule
from scorechain.ledger import (
    ApplyStatus,
    BlockReject,
    ChainState,
    HeightCache,
    LedgerInvariantError,
    TxReject,
    confirmed_conflicts,
    fund_accounts,
    fund_utxos,
    total_value,
)
from scorechain.scoring import block_score
from scorechain.witness import mint_block, propose_block, sign_witness

STUB = get_scheme("stub")
CFG = ChainConfig()  # tx_count_min=4, witness_m=2, confirm_depth=3


def keys(n, tag=b"L"):
    return [STUB.keypair(tag + bytes([i])) for i in range(n)]


def fresh_state(parties, units=10**9, cfg=CFG, **kwargs):
    return ChainState(cfg, STUB, fund_accounts({nid: units for _, nid in parties}), **kwargs)


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


def minted(parent_hash, height, txs, parties, proposer_idx=0, m=None):
    """Hand-built block with valid witness signatures from the party pool."""
    _, proposer = parties[proposer_idx]
    bare = Block(parent_hash, height, proposer, tuple(txs))
    message = enc_u256(bare.block_hash)
    sigs = []
    for secret, nid in parties:
        if nid == proposer:
            continue
        sigs.append((nid, STUB.sign(secret, message)))
        if len(sigs) == (m if m is not None else CFG.witness_m):
            break
    return replace(bare, witness_sigs=tuple(sigs))


def grant_op(nid, slot=0):
    # must mirror the outpoint ids fund_utxos mints for initial grants
    return Outpoint(hash256(b"initial-grant" + nid.public_key + enc_u64(slot)), 0)


# -- account-model transaction verdicts ------------------------------------------


def test_account_verdicts():
    parties = keys(3)
    idx = fund_accounts({nid: 100 for _, nid in parties})
    (sa, a), (sb, b), _ = parties

    good = make_transaction(STUB, sa, a, AccountBody(b, 40, 0))
    assert idx.validate_tx(good, STUB) is None  # and applied it
    assert idx.balances[a] == 60
    assert idx.balances[b] == 140
    assert idx.nonces[a] == 1

    replay = make_transaction(STUB, sa, a, AccountBody(b, 1, 0))
    assert idx.validate_tx(replay, STUB) is TxReject.NONCE_REUSE
    skipped = make_transaction(STUB, sa, a, AccountBody(b, 1, 5))
    assert idx.validate_tx(skipped, STUB) is TxReject.NONCE_FUTURE
    broke = make_transaction(STUB, sa, a, AccountBody(b, 61, 1))
    assert idx.validate_tx(broke, STUB) is TxReject.INSUFFICIENT_FUNDS

    forged = make_transaction(STUB, sb, a, AccountBody(b, 1, 1))
    assert idx.validate_tx(forged, STUB) is TxReject.BAD_SIGNATURE


def test_coinbase_only_legal_inside_blocks():
    # a block's coinbase is checked only against the chain's coinbase rule
    # (see the block-level coinbase tests below); applying one mints value
    (_, a), = keys(1)
    idx = fund_accounts({a: 10})
    cb = coinbase_transaction(AccountBody(a, 50, 0))
    assert idx.validate_tx(cb, STUB) is TxReject.BAD_COINBASE
    idx.apply_tx(cb)
    assert idx.balances[a] == 60
    assert idx.issued == 60
    assert idx.nonces[SYSTEM_ID] == 1


# -- utxo-model transaction verdicts ----------------------------------------------


def test_utxo_verdicts():
    parties = keys(3, tag=b"U")
    (sa, a), (sb, b), (_, c) = parties
    idx = fund_utxos({a: [100], b: [30]})

    spend = make_transaction(
        STUB, sa, a, UtxoBody((grant_op(a),), (TxOutput(c, 70), TxOutput(a, 25)))
    )
    assert idx.validate_tx(spend, STUB) is None  # and applied it
    assert grant_op(a) not in idx.utxos
    assert idx.utxos[Outpoint(spend.tx_id, 0)] == TxOutput(c, 70)
    assert idx.burned == 5  # 100 in, 95 out

    # a spent output is gone from the live state, like one never created
    again = make_transaction(STUB, sa, a, UtxoBody((grant_op(a),), (TxOutput(c, 1),)))
    assert idx.validate_tx(again, STUB) is TxReject.UNKNOWN_INPUT
    ghost = make_transaction(
        STUB, sa, a, UtxoBody((Outpoint(123456, 0),), (TxOutput(c, 1),))
    )
    assert idx.validate_tx(ghost, STUB) is TxReject.UNKNOWN_INPUT
    theft = make_transaction(STUB, sa, a, UtxoBody((grant_op(b),), (TxOutput(c, 1),)))
    assert idx.validate_tx(theft, STUB) is TxReject.WRONG_OWNER
    inflate = make_transaction(
        STUB, sb, b, UtxoBody((grant_op(b),), (TxOutput(c, 31),))
    )
    assert idx.validate_tx(inflate, STUB) is TxReject.OUTPUT_EXCEEDS_INPUT
    dup_in = make_transaction(
        STUB, sb, b, UtxoBody((grant_op(b), grant_op(b)), (TxOutput(c, 1),))
    )
    assert idx.validate_tx(dup_in, STUB) is TxReject.DOUBLE_SPEND


def test_utxo_body_shape_is_enforced_at_validation():
    # empty sides cannot be built via UtxoBody, so feed validate directly
    (_, a), = keys(1, tag=b"U")
    idx = fund_utxos({a: [10]})
    assert idx._validate_utxo_spend(a, _Bare((), (TxOutput(a, 1),))) is TxReject.EMPTY_INPUTS
    assert idx._validate_utxo_spend(a, _Bare((grant_op(a),), ())) is TxReject.EMPTY_OUTPUTS


class _Bare:
    def __init__(self, inputs, outputs):
        self.inputs = inputs
        self.outputs = outputs


def test_funding_helpers_count_issuance():
    parties = keys(3)
    ids = [nid for _, nid in parties]
    acct = fund_accounts({ids[0]: 5, ids[1]: 0, ids[2]: 7})
    assert acct.issued == 12
    assert ids[1] not in acct.balances
    assert total_value(acct) == acct.issued - acct.burned

    ut = fund_utxos({ids[0]: [4, 6], ids[1]: [], ids[2]: [0, 3]})
    assert ut.issued == 13
    assert len(ut.utxos) == 3
    assert total_value(ut) == ut.issued - ut.burned


def test_value_conservation_through_blocks():
    parties = keys(6)
    state = fresh_state(parties, units=1000)
    block = minted(state.genesis.block_hash, 1, payments(parties, 5), parties)
    assert state.apply_block(block).status is ApplyStatus.ACCEPTED
    idx = state.head_indices()
    assert total_value(idx) == idx.issued - idx.burned
    assert total_value(idx) == 6 * 1000


# -- block admission ---------------------------------------------------------------


def test_apply_block_accepts_and_advances_head():
    parties = keys(6)
    state = fresh_state(parties)
    block = minted(state.genesis.block_hash, 1, payments(parties, 4), parties)
    result = state.apply_block(block)
    assert result.status is ApplyStatus.ACCEPTED
    assert result.stored
    assert state.head is block
    assert state.height == 1
    assert state.main_by_height[block.height] == block.block_hash


def test_apply_block_rejects_duplicates():
    parties = keys(6)
    state = fresh_state(parties)
    block = minted(state.genesis.block_hash, 1, payments(parties, 4), parties)
    assert state.apply_block(block).stored
    dup = state.apply_block(block)
    assert dup.status is ApplyStatus.REJECTED
    assert dup.reason is BlockReject.DUPLICATE


def test_apply_block_structural_rejects():
    parties = keys(6)
    state = fresh_state(parties)
    g = state.genesis.block_hash
    txs = payments(parties, 4)

    wrong_height = minted(g, 3, txs, parties)
    assert state.apply_block(wrong_height).reason is BlockReject.BAD_STRUCTURE

    repeated = minted(g, 1, [txs[0], txs[0], txs[1], txs[2]], parties)
    assert state.apply_block(repeated).reason is BlockReject.BAD_STRUCTURE

    system_proposed = replace(minted(g, 1, txs, parties), proposer=SYSTEM_ID)
    assert state.apply_block(system_proposed).reason is BlockReject.BAD_STRUCTURE

    thin = minted(g, 1, txs[:3], parties)
    assert state.apply_block(thin).reason is BlockReject.TOO_FEW_TXS


def test_apply_block_witness_rejects():
    parties = keys(6)
    state = fresh_state(parties)
    g = state.genesis.block_hash
    txs = payments(parties, 4)
    good = minted(g, 1, txs, parties)

    short = replace(good, witness_sigs=good.witness_sigs[:1])
    assert state.apply_block(short).reason is BlockReject.BAD_WITNESS

    doubled = replace(good, witness_sigs=(good.witness_sigs[0], good.witness_sigs[0]))
    assert state.apply_block(doubled).reason is BlockReject.BAD_WITNESS

    secret0, proposer = parties[0]
    self_sig = (proposer, STUB.sign(secret0, enc_u256(good.block_hash)))
    selfish = replace(good, witness_sigs=(good.witness_sigs[0], self_sig))
    assert state.apply_block(selfish).reason is BlockReject.BAD_WITNESS

    node, sig = good.witness_sigs[1]
    garbled = replace(good, witness_sigs=(good.witness_sigs[0], (node, sig[:-1] + b"\0")))
    assert state.apply_block(garbled).reason is BlockReject.BAD_WITNESS


def test_apply_block_rejects_ineligible_witness():
    parties = keys(8)
    _, proposer = parties[0]
    ranked = sorted(parties[1:], key=lambda p: p[1].key_digest ^ proposer.key_digest)
    # admit only the two closest keys; the third is past the cutoff
    cutoff = (ranked[2][1].key_digest ^ proposer.key_digest)
    cfg = ChainConfig(witness_threshold=cutoff)
    state = fresh_state(parties, cfg=cfg)
    txs = payments(parties, 4)
    ok = minted(state.genesis.block_hash, 1, txs, [parties[0], ranked[0], ranked[1]])
    assert state.apply_block(ok).stored
    state2 = fresh_state(parties, cfg=cfg)
    bad = minted(state2.genesis.block_hash, 1, txs, [parties[0], ranked[0], ranked[2]])
    assert state2.apply_block(bad).reason is BlockReject.BAD_WITNESS


def test_apply_block_rejects_invalid_transaction():
    parties = keys(6)
    state = fresh_state(parties)
    secret, sender = parties[0]
    future = make_transaction(STUB, secret, sender, AccountBody(parties[1][1], 1, 9))
    txs = payments(parties[1:], 3) + [future]
    block = minted(state.genesis.block_hash, 1, txs, parties)
    result = state.apply_block(block)
    assert result.status is ApplyStatus.REJECTED
    assert result.reason is BlockReject.INVALID_TX


def with_coinbase(block, coinbase):
    """block with coinbase appended; its witness certificate stays valid."""
    return replace(block, transactions=block.transactions + tuple(coinbase))


def assert_bad_coinbase_changes_nothing(state, block):
    head, value = state.head, total_value(state.head_indices())
    result = state.apply_block(block)
    assert (result.status, result.reason) == (ApplyStatus.REJECTED, BlockReject.BAD_COINBASE)
    assert state.head is head
    assert total_value(state.head_indices()) == value


def test_coinbase_rule_enforced_on_minted_blocks():
    parties = keys(6)
    schedule = RewardSchedule(50, 5)
    rule = make_coinbase_rule(schedule, TxModel.ACCOUNT)
    state = fresh_state(parties, coinbase_rule=rule)
    g = state.genesis.block_hash
    txs = payments(parties, 4)

    bare = minted(g, 1, txs, parties)
    assert state.apply_block(bare).reason is BlockReject.BAD_COINBASE

    witnesses = tuple(node for node, _ in bare.witness_sigs)
    expected = rule(bare, witnesses, 0)
    result = state.apply_block(with_coinbase(bare, expected))
    assert result.status is ApplyStatus.ACCEPTED
    idx = state.head_indices()
    _, proposer = parties[0]
    assert idx.balances[proposer] == 10**9 - 1 + 50
    assert idx.issued == 6 * 10**9 + 50 + 2 * 5

    # wrong amount fails the exact-match rule
    fake = rule(bare, witnesses, 0)
    wrong = coinbase_transaction(AccountBody(bare.proposer, 51, 0))
    tampered = with_coinbase(bare, (wrong,) + fake[1:])
    state2 = fresh_state(parties, coinbase_rule=rule)
    assert state2.apply_block(tampered).reason is BlockReject.BAD_COINBASE


def test_stale_account_coinbase_nonce_rejected():
    parties = keys(6)
    rule = make_coinbase_rule(RewardSchedule(50, 5), TxModel.ACCOUNT)
    state = fresh_state(parties, coinbase_rule=rule)
    first = minted(state.genesis.block_hash, 1, payments(parties, 4), parties)
    witnesses = tuple(node for node, _ in first.witness_sigs)
    paid = with_coinbase(first, rule(first, witnesses, 0))
    assert state.apply_block(paid).status is ApplyStatus.ACCEPTED
    assert state.system_nonce_at(paid.block_hash) == 3  # proposer + 2 witnesses

    second = minted(paid.block_hash, 2, payments(parties, 4, nonce=1), parties)
    assert_bad_coinbase_changes_nothing(state, with_coinbase(second, rule(second, witnesses, 0)))
    fresh = with_coinbase(second, rule(second, witnesses, 3))
    assert state.apply_block(fresh).status is ApplyStatus.ACCEPTED


def test_utxo_coinbase_height_marker_rejected_unless_prescribed():
    parties = keys(6, tag=b"C")
    rule = make_coinbase_rule(RewardSchedule(50, 5), TxModel.UTXO)
    funding = fund_utxos({nid: [1000] for _, nid in parties})
    state = ChainState(CFG, STUB, funding, coinbase_rule=rule)
    txs = [
        make_transaction(
            STUB, secret, nid, UtxoBody((grant_op(nid),), (TxOutput(parties[i + 1][1], 1000),))
        )
        for i, (secret, nid) in enumerate(parties[:4])
    ]
    bare = minted(state.genesis.block_hash, 1, txs, parties)
    (prescribed,) = rule(bare, tuple(node for node, _ in bare.witness_sigs), 0)
    marker = prescribed.body.inputs[0]
    assert marker == Outpoint(1, COINBASE_INDEX)

    misplaced = UtxoBody((Outpoint(2, COINBASE_INDEX),), prescribed.body.outputs)
    assert_bad_coinbase_changes_nothing(state, with_coinbase(bare, [coinbase_transaction(misplaced)]))
    # a second grant under the same marker, beside the prescribed one
    extra = coinbase_transaction(UtxoBody((marker,), (TxOutput(bare.proposer, 1),)))
    assert_bad_coinbase_changes_nothing(state, with_coinbase(bare, [prescribed, extra]))
    assert state.apply_block(with_coinbase(bare, [prescribed])).status is ApplyStatus.ACCEPTED


def test_ruleless_ledger_rejects_any_system_transaction(tmp_path):
    parties = keys(6)
    state = fresh_state(parties)
    g = state.genesis.block_hash
    txs = tuple(payments(parties, 4))
    bare = minted(g, 1, txs, parties)
    grant = coinbase_transaction(AccountBody(bare.proposer, 10**12, 0))
    # the certificate covers the candidate, the user transactions, so a
    # granting ledger accepts the same certificate below
    forged = with_coinbase(bare, (grant,))

    result = state.apply_block(forged)
    assert (result.status, result.reason) == (ApplyStatus.REJECTED, BlockReject.BAD_COINBASE)
    assert total_value(state.head_indices()) == 6 * 10**9
    assert state.head is state.genesis

    # a chain whose rule prescribes that grant does not load without the rule
    rule = make_coinbase_rule(RewardSchedule(10**12, 0), TxModel.ACCOUNT)
    granting = fresh_state(parties, coinbase_rule=rule)
    assert granting.apply_block(forged).status is ApplyStatus.ACCEPTED
    path = str(tmp_path / "chain.bin")
    granting.dump_chain(path)
    funding = fund_accounts({nid: 10**9 for _, nid in parties})
    assert ChainState.load_chain(CFG, STUB, path, funding, coinbase_rule=rule).head == forged
    with pytest.raises(SerializationError, match="bad_coinbase"):
        ChainState.load_chain(CFG, STUB, path, funding)


def test_candidate_validity_skips_witness_and_coinbase_checks():
    parties = keys(6)
    schedule = RewardSchedule(50, 5)
    state = fresh_state(parties, coinbase_rule=make_coinbase_rule(schedule, TxModel.ACCOUNT))
    txs = payments(parties, 4)
    bare = Block(state.genesis.block_hash, 1, parties[0][1], tuple(txs))
    assert bare.witness_sigs == ()
    assert state.candidate_block_valid(bare)

    secret, sender = parties[0]
    offender = make_transaction(STUB, secret, sender, AccountBody(parties[1][1], 1, 7))
    broken = Block(state.genesis.block_hash, 1, parties[0][1], tuple(txs[:3]) + (offender,))
    assert not state.candidate_block_valid(broken)

    stranger = Block(12345, 1, parties[0][1], tuple(txs))
    assert not state.candidate_block_valid(stranger)


# -- orphan pool --------------------------------------------------------------------


def test_orphan_buffered_then_drained():
    parties = keys(8)
    state = fresh_state(parties)
    g = state.genesis.block_hash
    b1 = minted(g, 1, payments(parties[:4], 4), parties)
    b2 = minted(b1.block_hash, 2, payments(parties[4:], 4), parties)

    out_of_order = state.apply_block(b2)
    assert out_of_order.status is ApplyStatus.ORPHANED
    assert not out_of_order.stored
    assert state.height == 0

    filled = state.apply_block(b1)
    assert filled.status is ApplyStatus.ACCEPTED
    assert state.height == 2
    assert state.head is b2


def test_orphan_waits_for_its_parent_however_many_applies_pass():
    parties = keys(8)
    state = fresh_state(parties)
    g = state.genesis.block_hash
    b1 = minted(g, 1, payments(parties[:4], 4), parties)
    b2 = minted(b1.block_hash, 2, payments(parties[4:], 4), parties)
    assert state.apply_block(b2).status is ApplyStatus.ORPHANED

    filler = minted(g, 1, payments(parties[:4], 5), parties)
    assert state.apply_block(filler).stored
    for _ in range(600):
        assert state.apply_block(filler).reason is BlockReject.DUPLICATE

    assert state.apply_block(b1).stored
    assert state.has_block(b2.block_hash)  # drained from the pool and stored
    assert state.stats.orphans_expired == 0


def test_orphan_pool_capacity_evicts_oldest(monkeypatch):
    monkeypatch.setattr(ledger, "MAX_ORPHANS", 1)
    parties = keys(8)
    state = fresh_state(parties)
    first = minted(11111, 1, payments(parties[:4], 4), parties)
    second = minted(22222, 1, payments(parties[4:], 4), parties)
    assert state.apply_block(first).status is ApplyStatus.ORPHANED
    assert state.apply_block(second).status is ApplyStatus.ORPHANED
    assert state.stats.orphans_expired == 1
    assert state.apply_block(first).status is ApplyStatus.ORPHANED


def test_orphan_pool_capacity_skips_drained_orphans(monkeypatch):
    monkeypatch.setattr(ledger, "MAX_ORPHANS", 2)
    parties = keys(8)
    state = fresh_state(parties)
    parent = minted(state.genesis.block_hash, 1, payments(parties[:4], 4), parties)
    o1 = minted(parent.block_hash, 2, payments(parties[4:], 4), parties)
    assert state.apply_block(o1).status is ApplyStatus.ORPHANED
    assert state.apply_block(parent).status is ApplyStatus.ACCEPTED
    assert state.head is o1  # drained, so no longer in the pool

    o2, o3, o4 = (
        minted(fake_parent, 1, payments(parties[:4], 4), parties)
        for fake_parent in (11111, 22222, 33333)
    )
    for orphan in (o2, o3, o4):
        assert state.apply_block(orphan).status is ApplyStatus.ORPHANED
    # the pool held o2 and o3; o4 evicted o2, the oldest still buffered
    assert state.stats.orphans_expired == 1
    assert state.apply_block(o3).reason is BlockReject.DUPLICATE
    # a discarded orphan that arrives again is buffered again
    assert state.apply_block(o2).status is ApplyStatus.ORPHANED


def test_orphan_subtree_drains_when_its_root_arrives():
    parties = keys(12)
    state = fresh_state(parties)
    parent = minted(state.genesis.block_hash, 1, payments(parties[:4], 4), parties)
    left = minted(parent.block_hash, 2, payments(parties[4:8], 4), parties)
    right = minted(parent.block_hash, 2, payments(parties[8:], 4), parties, proposer_idx=1)
    grandchild = minted(left.block_hash, 3, payments(parties[:4], 4, nonce=1), parties)

    for orphan in (grandchild, right, left):
        assert state.apply_block(orphan).status is ApplyStatus.ORPHANED
    assert state.apply_block(parent).stored
    for block in (parent, left, right, grandchild):
        assert state.has_block(block.block_hash)

    in_order = fresh_state(parties)
    for block in (parent, left, right, grandchild):
        assert in_order.apply_block(block).stored
    assert state.head is in_order.head


# -- fork choice ---------------------------------------------------------------------


def siblings(parties, state):
    """Two valid children of genesis ordered (winner, loser) by score."""
    g = state.genesis.block_hash
    a = minted(g, 1, payments(parties[:4], 4), parties, proposer_idx=0)
    b = minted(g, 1, payments(parties[4:8], 4), parties, proposer_idx=1)
    return sorted((a, b), key=block_score)


def test_short_fork_prefers_lower_score_either_order():
    parties = keys(12)
    winner, loser = siblings(parties, fresh_state(parties))

    state = fresh_state(parties)
    assert state.apply_block(loser).status is ApplyStatus.ACCEPTED
    flipped = state.apply_block(winner)
    assert flipped.status is ApplyStatus.SWITCHED
    assert state.head is winner
    assert state.stats.switches == 1

    state2 = fresh_state(parties)
    assert state2.apply_block(winner).status is ApplyStatus.ACCEPTED
    shelved = state2.apply_block(loser)
    assert shelved.status is ApplyStatus.SIDE_BRANCH
    assert state2.head is winner
    assert state2.stats.switches == 0


def test_best_score_covers_side_branches():
    parties = keys(12)
    winner, loser = siblings(parties, fresh_state(parties))
    state = fresh_state(parties)
    state.apply_block(winner)
    state.apply_block(loser)
    assert state.best_score_at(1) == block_score(winner)
    assert state.best_score_at(99) is None


def extend(state_parties, tip, heights, offset):
    """Chain of valid blocks on top of tip using disjoint sender groups."""
    blocks = []
    for i, h in enumerate(heights):
        group = state_parties[offset + 4 * i : offset + 4 * i + 4]
        blocks.append(minted(tip.block_hash, h, payments(group, 4), state_parties))
        tip = blocks[-1]
    return blocks


def test_long_branch_overrides_score_at_confirm_depth():
    parties = keys(24)
    winner, loser = siblings(parties, fresh_state(parties))
    state = fresh_state(parties)
    state.apply_block(winner)
    state.apply_block(loser)
    assert state.head is winner

    tail = extend(parties, loser, (2, 3), 8)
    state.apply_block(tail[0])
    assert state.head is winner  # length 2 < confirm_depth keeps the score rule
    result = state.apply_block(tail[1])
    assert result.status is ApplyStatus.SWITCHED
    assert state.head is tail[1]  # length 3 >= confirm_depth: longest wins

    # the branch's blocks in any order reach the same head
    shuffled = fresh_state(parties)
    shuffled.apply_block(winner)
    assert shuffled.apply_block(tail[1]).status is ApplyStatus.ORPHANED
    assert shuffled.apply_block(loser).status is ApplyStatus.SIDE_BRANCH
    assert shuffled.apply_block(tail[0]).stored
    assert shuffled.head is tail[-1]


def test_equal_long_branches_fall_back_to_first_block_score():
    parties = keys(24)
    winner, loser = siblings(parties, fresh_state(parties))
    state = fresh_state(parties)
    for b in (winner, loser):
        state.apply_block(b)
    for b in extend(parties, loser, (2, 3), 8):
        state.apply_block(b)
    assert state.head.height == 3
    for b in extend(parties, winner, (2, 3), 16):
        state.apply_block(b)
    # both branches reach length 3; the tie-break is the first block's score
    assert state.main_by_height[1] == winner.block_hash
    assert state.head.height == 3


def test_lower_scored_sibling_below_confirm_depth_shortens_the_chain():
    parties = keys(12)
    winner, loser = siblings(parties, fresh_state(parties))
    state = fresh_state(parties)
    state.apply_block(loser)
    (tip,) = extend(parties, loser, (2,), 8)
    state.apply_block(tip)
    state.pop_fork_events()
    # the loser's branch is 2 long, under confirm_depth 3: the score rule
    # moves the head down to the lower-scored sibling
    result = state.apply_block(winner)
    assert result.status is ApplyStatus.SWITCHED
    assert state.head is winner
    assert state.main_by_height == [state.genesis.block_hash, winner.block_hash]
    assert state.stats.switches == 1
    assert state.pop_fork_events() == [winner.block_hash]


@settings(max_examples=80, deadline=None)
@given(
    confirm_depth=st.integers(1, 4),
    parents=st.lists(st.integers(0, 10**6), min_size=1, max_size=14),
    data=st.data(),
)
def test_incremental_fork_choice_equals_the_from_genesis_walk(confirm_depth, parents, data):
    """Random block trees delivered in shuffled order: after every apply the
    followed chain and head equal what _follow decides from genesis."""
    cfg = ChainConfig(tx_count_min=1, confirm_depth=confirm_depth)
    parties = keys(len(parents) + 3, tag=b"T")
    state = fresh_state(parties, cfg=cfg)
    tree = [state.genesis]
    for i, pick in enumerate(parents):
        # a parent among the last few blocks makes equal-length branches common
        parent = tree[max(0, len(tree) - 4) + pick % min(4, len(tree))]
        secret, sender = parties[i + 2]
        pay = make_transaction(STUB, secret, sender, AccountBody(parties[0][1], 1, 0))
        tree.append(minted(parent.block_hash, parent.height + 1, [pay], parties))
    for block in data.draw(st.permutations(tree[1:]), label="delivery"):
        assert state.apply_block(block).status is not ApplyStatus.REJECTED
        followed = state._follow()
        assert state.main_by_height == followed
        assert state.head.block_hash == followed[-1]
    assert len(state.blocks) == len(tree)


class _CountingChildren(dict):
    lookups = 0

    def get(self, key, default=None):
        _CountingChildren.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        _CountingChildren.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("duration", [1000, 3000])
def test_fork_choice_work_per_stored_block_does_not_grow_with_height(duration, monkeypatch):
    # a deterministic count, so host load cannot move it; re-walking the
    # chain from genesis on each insert makes 34 (d=1000) and 103 (d=3000)
    monkeypatch.setattr(_CountingChildren, "lookups", 0)
    sim = simnet.Simulator(replace(simnet.SimConfig(), seed=3, duration=duration))
    for node in sim.nodes:
        node.state.children = _CountingChildren()
    assert sim.run().blocks_minted > duration // 10
    stored = sum(len(node.state.blocks) - 1 for node in sim.nodes)
    assert _CountingChildren.lookups <= 3 * stored


def test_fork_events_surface_switches_once():
    parties = keys(12)
    winner, loser = siblings(parties, fresh_state(parties))
    state = fresh_state(parties)
    state.apply_block(loser)
    assert state.pop_fork_events() == []
    state.apply_block(winner)
    events = state.pop_fork_events()
    assert events == [winner.block_hash]
    assert state.pop_fork_events() == []


def test_confirmed_prefix_trails_head_by_depth():
    parties = keys(24)
    state = fresh_state(parties)
    chain = extend(parties, state.genesis, (1, 2, 3, 4, 5), 0)
    for i, block in enumerate(chain):
        state.apply_block(block)
        prefix = state.confirmed_prefix()
        assert prefix[0] == state.genesis.block_hash
        assert len(prefix) == max(0, (i + 1) - CFG.confirm_depth) + 1
    assert state.confirmed_prefix()[-1] == chain[1].block_hash


# -- replay oracle ---------------------------------------------------------------------


def test_replay_matches_incremental_state_across_switch():
    parties = keys(24)
    winner, loser = siblings(parties, fresh_state(parties))
    state = fresh_state(parties, replay_check=True)
    state.apply_block(loser)
    state.apply_block(winner)  # replay_check asserts inside the switch
    for b in extend(parties, winner, (2, 3), 16):
        state.apply_block(b)
    assert state.replay_from_genesis() == state.head_indices()
    state.assert_replay_matches()


def test_replay_mismatch_raises():
    parties = keys(6)
    state = fresh_state(parties)
    block = minted(state.genesis.block_hash, 1, payments(parties, 4), parties)
    state.apply_block(block)
    # corrupt the stored snapshot: a payment no block carries
    state.head_indices().apply_tx(payments(parties, 1, nonce=1)[0])
    with pytest.raises(LedgerInvariantError):
        state.assert_replay_matches()


def test_replay_check_names_the_height_where_the_followed_chain_differs():
    parties = keys(24)
    winner, loser = siblings(parties, fresh_state(parties))
    state = fresh_state(parties)
    for b in (winner, loser, *extend(parties, winner, (2, 3), 8)):
        state.apply_block(b)
    state.assert_replay_matches()
    state.main_by_height[1] = loser.block_hash
    with pytest.raises(LedgerInvariantError, match="at height 1$"):
        state.assert_replay_matches()
    state.main_by_height[1] = winner.block_hash
    state.main_by_height.pop()
    with pytest.raises(LedgerInvariantError, match="at height 3$"):
        state.assert_replay_matches()


# -- persistence --------------------------------------------------------------------------


def test_dump_and_load_round_trip(tmp_path):
    parties = keys(24)
    state = fresh_state(parties)
    for b in extend(parties, state.genesis, (1, 2, 3), 0):
        state.apply_block(b)
    path = str(tmp_path / "chain.bin")
    state.dump_chain(path)

    funding = fund_accounts({nid: 10**9 for _, nid in parties})
    loaded = ChainState.load_chain(CFG, STUB, path, funding)
    assert loaded.head.block_hash == state.head.block_hash
    assert [b.block_hash for b in loaded.main_chain()] == [
        b.block_hash for b in state.main_chain()
    ]
    assert loaded.head_indices() == state.head_indices()


def test_load_rejects_garbage_and_foreign_genesis(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00\x00\x00\x00\x00\x00")
    with pytest.raises(SerializationError):
        ChainState.load_chain(CFG, STUB, str(bad))

    parties = keys(6)
    state = fresh_state(parties)
    path = str(tmp_path / "chain.bin")
    state.dump_chain(path)
    other_cfg = ChainConfig(tx_count_min=2)
    with pytest.raises(SerializationError):
        ChainState.load_chain(other_cfg, STUB, path)

    data = open(path, "rb").read()
    open(path, "wb").write(data[:-3])
    with pytest.raises(SerializationError):
        ChainState.load_chain(CFG, STUB, path)


# -- conflict sweep -------------------------------------------------------------------------


def test_confirmed_conflicts_empty_on_honest_chain():
    parties = keys(24)
    state = fresh_state(parties)
    for b in extend(parties, state.genesis, (1, 2, 3, 4, 5), 0):
        state.apply_block(b)
    assert confirmed_conflicts(state) == []


class _FakePrefix:
    """Detector probe: a confirmed prefix no honest ledger would produce."""

    def __init__(self, blocks):
        self.blocks = {b.block_hash: b for b in blocks}
        self._prefix = [b.block_hash for b in blocks]

    def confirmed_prefix(self):
        return self._prefix


def test_confirmed_conflicts_detector_flags_reuse():
    parties = keys(6)
    secret, sender = parties[0]
    pay_b = make_transaction(STUB, secret, sender, AccountBody(parties[1][1], 1, 0))
    pay_c = make_transaction(STUB, secret, sender, AccountBody(parties[2][1], 2, 0))
    filler = payments(parties[3:], 3)
    b1 = minted(0, 1, [pay_b] + filler, parties)
    b2 = minted(b1.block_hash, 2, [pay_c] + payments(parties[3:], 3, nonce=1), parties)
    found = confirmed_conflicts(_FakePrefix([b1, b2]))
    assert len(found) == 1
    assert "spent twice" in found[0]

    op = grant_op(sender)
    spend1 = make_transaction(STUB, secret, sender, UtxoBody((op,), (TxOutput(parties[1][1], 1),)))
    spend2 = make_transaction(STUB, secret, sender, UtxoBody((op,), (TxOutput(parties[2][1], 1),)))
    u1 = Block(0, 1, sender, (spend1,))
    u2 = Block(u1.block_hash, 2, sender, (spend2,))
    assert confirmed_conflicts(_FakePrefix([u1, u2]))


# -- shared caches and order independence ------------------------------------------------------


def test_memory_per_block_is_its_writes_not_the_account_count():
    # a snapshot shares the funded base and keeps only the writes since it,
    # so a block retains far less than a copy of 20k balances (about 1 MB)
    parties = [STUB.keypair(b"M" + enc_u64(i)) for i in range(20_000)]
    state = fresh_state(parties)
    batches = [
        [
            make_transaction(STUB, secret, nid, AccountBody(parties[100 + 4 * h + i][1], 1, h))
            for i, (secret, nid) in enumerate(parties[3:7])
        ]
        for h in range(30)
    ]
    logs = ({}, {})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for batch in batches:
            candidate = propose_block(parties[0][1], state, batch, CFG)
            sigs = [sign_witness(*parties[w], candidate, state, CFG, logs[w - 1]) for w in (1, 2)]
            assert state.apply_block(mint_block(candidate, sigs, CFG, STUB)).stored
        per_block = (tracemalloc.get_traced_memory()[0] - before) / len(batches)
    finally:
        tracemalloc.stop()
    assert state.height == 30
    assert per_block < 128 * 1024


def test_head_snapshot_stores_only_live_outputs():
    # 200 single-input spends around a fixed four-key wallet: the live set
    # stays at four outputs, and so does a collapsed snapshot, whatever the
    # spent history
    parties = keys(6, tag=b"W")
    wallet = parties[:4]
    state = ChainState(CFG, STUB, fund_utxos({nid: [1000] for _, nid in wallet}))
    held = {nid: grant_op(nid) for _, nid in wallet}
    for height in range(1, 51):
        txs = []
        for i, (secret, nid) in enumerate(wallet):
            payee = wallet[(i + 1) % len(wallet)][1]
            txs.append(
                make_transaction(STUB, secret, nid, UtxoBody((held[nid],), (TxOutput(payee, 1000),)))
            )
        block = minted(state.head.block_hash, height, txs, parties)
        assert state.apply_block(block).status is ApplyStatus.ACCEPTED
        held = {tx.body.outputs[0].owner: Outpoint(tx.tx_id, 0) for tx in txs}

    head = state.head_indices()
    head._collapse()
    stored = sum(len(getattr(head, name)) for name in head.__slots__ if name.startswith("_"))
    assert len(head.utxos) == len(wallet)
    assert stored == len(wallet)
    assert total_value(head) == 4000


def test_shared_caches_serve_second_ledger():
    parties = keys(6)
    snapshots, verdicts = HeightCache(), HeightCache()
    funding = fund_accounts({nid: 10**9 for _, nid in parties})
    first = ChainState(CFG, STUB, funding, snapshot_store=snapshots, verdict_cache=verdicts)
    block = minted(first.genesis.block_hash, 1, payments(parties, 4), parties)
    assert first.apply_block(block).stored
    assert (block.block_hash, block.witness_sigs) in verdicts

    second = ChainState(CFG, STUB, funding, snapshot_store=snapshots, verdict_cache=verdicts)
    assert second.apply_block(block).stored
    assert second.head_indices() is first.head_indices()


def test_dropped_entries_are_rebuilt_from_the_nearest_kept_snapshot(monkeypatch):
    monkeypatch.setattr(ledger, "CHECKPOINT_SPACING", 4)
    parties = keys(6)
    snapshots, verdicts = HeightCache(), HeightCache()
    funding = fund_accounts({nid: 10**9 for _, nid in parties})
    state = ChainState(CFG, STUB, funding, snapshot_store=snapshots, verdict_cache=verdicts)
    chain = []
    for height in range(1, 7):
        block = minted(state.head.block_hash, height, payments(parties, 6, height - 1), parties)
        assert state.apply_block(block).status is ApplyStatus.ACCEPTED
        chain.append(block)
    head = state.head_indices()

    # every entry is filed, so the drop empties both stores; the node's own
    # checkpoints, genesis and height 4, stay
    snapshots.drop_below(7)
    verdicts.drop_below(7)
    assert not snapshots and not verdicts
    assert set(state._checkpoints) == {state.genesis.block_hash, chain[3].block_hash}

    replayed = []
    apply_tx = ledger.TxIndices.apply_tx
    monkeypatch.setattr(
        ledger.TxIndices, "apply_tx", lambda indices, tx: replayed.append(tx) or apply_tx(indices, tx)
    )
    rebuilt = state.head_indices()
    assert replayed == [tx for block in chain[4:] for tx in block.transactions]
    assert rebuilt == head and rebuilt is not head
    assert state.head_indices() is rebuilt  # stored again, at its height

    # a second ledger on the same stores validates every block again
    second = ChainState(CFG, STUB, funding, snapshot_store=snapshots, verdict_cache=verdicts)
    for block in chain:
        assert second.apply_block(block).status is ApplyStatus.ACCEPTED
    assert (chain[0].block_hash, chain[0].witness_sigs) in verdicts
    assert second.head_indices() is rebuilt
    second.assert_replay_matches()


def test_delivery_order_does_not_change_selection():
    parties = keys(40)
    builder = fresh_state(parties)
    rng = random.Random(7)
    blocks = []
    tips = [builder.genesis]
    for i in range(24):
        parent = rng.choice(tips[-3:])  # occasional forks near the tip
        group = parties[(4 * i) % 36 : (4 * i) % 36 + 4]
        nonce = (4 * i) // 36  # group reuse needs the next nonce round
        block = minted(parent.block_hash, parent.height + 1, payments(group, 4, nonce), parties)
        if builder.apply_block(block).stored:
            blocks.append(block)
            tips.append(block)

    orders = [list(blocks), list(blocks)]
    rng.shuffle(orders[0])
    rng.shuffle(orders[1])
    heads = []
    for order in orders:
        fresh = fresh_state(parties)
        for block in order:
            fresh.apply_block(block)
        heads.append(fresh.head.block_hash)
    assert heads[0] == heads[1] == builder.head.block_hash
