"""Layered ledger snapshots against a plain-dict replay, on random block trees.

Each stored snapshot is a shared base plus an overlay of writes. These tests
rebuild every stored snapshot's content from genesis with plain dicts and
require equality, in both transaction models, with a base small enough to
collapse every few blocks and one too large to collapse in a test's blocks.
"""

import tracemalloc
from dataclasses import dataclass
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from scorechain import core_types, ledger
from scorechain.core_types import (
    AccountBody,
    Block,
    ChainConfig,
    NodeId,
    Outpoint,
    SYSTEM_ID,
    Transaction,
    TxModel,
    TxOutput,
    UtxoBody,
    enc_u64,
    enc_u256,
    get_scheme,
    make_transaction,
)
from scorechain.incentive import RewardSchedule, make_coinbase_rule
from scorechain.ledger import (
    ChainState,
    LedgerInvariantError,
    TxIndices,
    fund_accounts,
    fund_utxos,
)
from scorechain.witness import WitnessSignature, mint_block, propose_block, sign_witness

STUB = get_scheme("stub")
CFG = ChainConfig()  # tx_count_min=4, witness_m=2, every key eligible
PARTIES = [STUB.keypair(b"layers" + enc_u64(i)) for i in range(8)]
# identities that never spend, funded only in the large base: with them it
# holds 608 accounts or 1,824 outputs, more than ten blocks can write
FILLER = [STUB.keypair(b"filler" + enc_u64(i))[1] for i in range(600)]
# payees beyond the spenders, so account-model overlays outgrow a small base
PAYEES = [nid for _, nid in PARTIES] + FILLER[:40]
RULES = {model: make_coinbase_rule(RewardSchedule(50, 5), model) for model in TxModel}


@dataclass
class Plain:
    """The value state as plain dicts, changed the way the ledger's rules say."""

    balances: dict
    nonces: dict
    utxos: dict
    issued: int
    burned: int

    @classmethod
    def of(cls, indices) -> "Plain":
        return cls(
            dict(indices.balances),
            dict(indices.nonces),
            dict(indices.utxos),
            indices.issued,
            indices.burned,
        )

    def copy(self) -> "Plain":
        return Plain(
            dict(self.balances),
            dict(self.nonces),
            dict(self.utxos),
            self.issued,
            self.burned,
        )

    def apply(self, tx) -> None:
        body = tx.body
        coinbase = tx.is_coinbase()
        if isinstance(body, AccountBody):
            self.nonces[tx.sender] = body.nonce + 1
            if coinbase:
                self.issued += body.amount
            else:
                self.balances[tx.sender] = self.balances.get(tx.sender, 0) - body.amount
            self.balances[body.recipient] = self.balances.get(body.recipient, 0) + body.amount
            return
        in_sum = 0
        if not coinbase:
            for op in body.inputs:
                in_sum += self.utxos.pop(op).amount
        out_sum = 0
        for index, out in enumerate(body.outputs):
            self.utxos[Outpoint(tx.tx_id, index)] = out
            out_sum += out.amount
        if coinbase:
            self.issued += out_sum
        else:
            self.burned += in_sum - out_sum


def funding(model: TxModel, large: bool):
    owners = [nid for _, nid in PARTIES] + (FILLER if large else [])
    if model is TxModel.ACCOUNT:
        return fund_accounts({nid: 10**6 for nid in owners})
    return fund_utxos({nid: [1000, 1000, 1000] for nid in owners})


# one funding per shape, shared by every example: a base is never written
FUNDING = {(model, large): funding(model, large) for model in TxModel for large in (False, True)}


def draw_payments(data, model: TxModel, work: Plain, count: int) -> list:
    """count transactions, each valid on work after the ones before it."""
    txs = []
    for _ in range(count):
        start = data.draw(st.integers(0, len(PARTIES) - 1))
        recipient = PAYEES[data.draw(st.integers(0, len(PAYEES) - 1))]
        if model is TxModel.ACCOUNT:
            secret, sender = PARTIES[start]
            amount = data.draw(st.integers(0, 1000))
            body = AccountBody(recipient, amount, work.nonces.get(sender, 0))
        else:
            # the first party from start on that still owns an output
            for k in range(len(PARTIES)):
                secret, sender = PARTIES[(start + k) % len(PARTIES)]
                owned = [op for op, out in work.utxos.items() if out.owner == sender]
                if owned:
                    break
            inputs = tuple(owned[: data.draw(st.integers(1, 2))])
            in_sum = sum(work.utxos[op].amount for op in inputs)
            total = in_sum - (data.draw(st.integers(0, 2)) if in_sum > 4 else 0)
            if total >= 2 and data.draw(st.booleans()):
                half = total // 2
                outputs = (TxOutput(recipient, half), TxOutput(sender, total - half))
            else:
                outputs = (TxOutput(recipient, total),)
            body = UtxoBody(inputs, outputs)
        tx = make_transaction(STUB, secret, sender, body)
        work.apply(tx)
        txs.append(tx)
    return txs


def invalid_payment(model: TxModel, parent: Plain, path: list):
    """A payment the parent state refuses: a used nonce or a spent output.

    The ledger keeps no spent history, so the spent output is drawn from the
    payments on path, the parent's ancestry.
    """
    secret, sender = PARTIES[0]
    recipient = PARTIES[1][1]
    if model is TxModel.ACCOUNT:
        nonce = parent.nonces.get(sender, 0)
        body = AccountBody(recipient, 1, nonce - 1 if nonce else 50)
    else:
        used = [
            op
            for block in path
            for tx in block.transactions
            if not tx.is_coinbase()
            for op in tx.body.inputs
        ]
        ghost = min(used, key=lambda op: op.tx_id, default=Outpoint(12345, 0))
        body = UtxoBody((ghost,), (TxOutput(recipient, 1),))
    return make_transaction(STUB, secret, sender, body)


def minted(parent: Block, txs: list, proposer_idx: int, model: TxModel, system_nonce: int):
    secret_of = {nid: secret for secret, nid in PARTIES}
    proposer = PARTIES[proposer_idx][1]
    candidate = Block(parent.block_hash, parent.height + 1, proposer, tuple(txs))
    message = enc_u256(candidate.block_hash)
    sigs = [
        WitnessSignature(nid, STUB.sign(secret_of[nid], message))
        for _, nid in PARTIES
        if nid != proposer
    ][: CFG.witness_m]
    return mint_block(candidate, sigs, CFG, STUB, RULES[model], system_nonce)


def ancestry(state: ChainState, block_hash: int) -> list:
    """The stored blocks from height 1 up to block_hash."""
    path = []
    while block_hash != state.genesis.block_hash:
        block = state.blocks[block_hash]
        path.append(block)
        block_hash = block.parent_hash
    return path[::-1]


def replay_ancestry(state: ChainState, block_hash: int, genesis: Plain) -> Plain:
    plain = genesis.copy()
    for block in ancestry(state, block_hash):
        for tx in block.transactions:
            plain.apply(tx)
    return plain


def stored_snapshot(state, block_hash):
    """A block's snapshot as stored: genesis's is a checkpoint, every other
    stored block's must be in the store (a KeyError if it is not)."""
    if block_hash == state.genesis.block_hash:
        return state._checkpoints[block_hash]
    return state.snapshots[block_hash]


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(TxModel), large=st.booleans(), data=st.data())
def test_stored_snapshots_equal_plain_replay_of_their_ancestry(model, large, data):
    genesis_indices = FUNDING[model, large]
    genesis = Plain.of(genesis_indices)
    state = ChainState(CFG, STUB, genesis_indices, coinbase_rule=RULES[model])
    stored = [state.genesis.block_hash]
    for _ in range(data.draw(st.integers(1, 10), label="blocks")):
        parent = state.blocks[stored[data.draw(st.integers(0, len(stored) - 1))]]
        before = replay_ancestry(state, parent.block_hash, genesis)
        work = before.copy()
        txs = draw_payments(data, model, work, data.draw(st.integers(4, 5)))
        poisoned = data.draw(st.integers(0, 4)) == 0
        if poisoned:
            txs.append(invalid_payment(model, before, ancestry(state, parent.block_hash)))

        # a clone's writes never reach the snapshot it was cut from, even
        # when cutting it collapsed that snapshot
        source = stored_snapshot(state, parent.block_hash)
        twin = source.clone()
        for tx in txs[: len(txs) - poisoned]:
            twin.apply_tx(tx)
        assert Plain.of(twin) == work
        assert Plain.of(source) == before

        system_nonce = before.nonces.get(SYSTEM_ID, 0)
        block = minted(parent, txs, data.draw(st.integers(0, 7)), model, system_nonce)
        if block.block_hash in state.blocks:
            continue  # the same proposal drawn twice
        result = state.apply_block(block)
        assert result.stored is not poisoned
        if result.stored:
            stored.append(block.block_hash)
        assert Plain.of(source) == before

    for block_hash in state.blocks:
        snapshot = stored_snapshot(state, block_hash)
        assert Plain.of(snapshot) == replay_ancestry(state, block_hash, genesis)
        if large:  # too few writes to collapse: every snapshot shares the base
            assert snapshot._balances_base is genesis_indices._balances_base
            assert snapshot._utxos_base is genesis_indices._utxos_base
    state.assert_replay_matches()


@given(st.dictionaries(st.binary(min_size=32, max_size=32), st.integers(0, 10**12), max_size=12))
def test_fund_accounts_matches_the_node_keyed_constructor(alloc):
    by_node = {NodeId(key): units for key, units in alloc.items()}
    funded = {node: units for node, units in by_node.items() if units > 0}
    expected = TxIndices(balances=funded, issued=sum(funded.values()))
    indices = fund_accounts(by_node)
    assert indices == expected
    assert Plain.of(indices) == Plain.of(expected)


def test_funding_accounts_hashes_nothing(monkeypatch):
    # building the identities takes no digest, and funding them hashes no
    # NodeId: the balance map is keyed by key bytes in one pass
    calls = []
    hash256 = core_types.hash256
    monkeypatch.setattr(core_types, "hash256", lambda data: calls.append(data) or hash256(data))
    monkeypatch.setattr(ledger, "hash256", core_types.hash256)
    nodes = [NodeId(sha256(enc_u64(i)).digest()) for i in range(10_000)]
    alloc = dict(zip(nodes, range(1, 10_001)))
    monkeypatch.setattr(NodeId, "__hash__", lambda node: calls.append(node) or hash(node.public_key))
    indices = fund_accounts(alloc)
    assert calls == []
    assert indices.issued == sum(alloc.values())
    assert len(indices._balances_base) == 10_000


def test_clone_collapses_exactly_past_the_rule():
    # written**2 > 64 * (base size + 1): over 8 funded accounts the bound is
    # 576, so an overlay of 24 written entries is kept and one of 25 collapses
    secret, sender = PARTIES[0]
    for payees, collapses in ((22, False), (23, True)):
        indices = fund_accounts({nid: 10**6 for _, nid in PARTIES})
        base = indices._balances_base
        # the sender's nonce and balance, then one balance per payee
        for nonce, payee in enumerate(FILLER[:payees]):
            indices.apply_tx(make_transaction(STUB, secret, sender, AccountBody(payee, 1, nonce)))
        content = Plain.of(indices)
        twin = indices.clone()
        assert (indices._balances_base is not base) is collapses
        assert twin._balances_base is indices._balances_base
        assert Plain.of(indices) == Plain.of(twin) == content


@pytest.mark.parametrize(
    "model, blocks, written, untouched",
    [
        (TxModel.ACCOUNT, 16, "_balances_base", ["_utxos_base"]),
        (TxModel.UTXO, 6, "_utxos_base", ["_balances_base", "_nonces_base"]),
    ],
    ids=["ACCOUNT", "UTXO"],
)
def test_collapse_keeps_the_base_of_an_untouched_map(model, blocks, written, untouched):
    # account payments never write the UTXO map, and UTXO payments never
    # write balances or nonces: once the written map's overlay has collapsed
    # into a fresh base, every snapshot still shares the genesis base of the rest
    genesis = FUNDING[model, False]
    snapshots = paid_ledger(model, genesis, blocks).snapshots.values()
    assert any(getattr(s, written) is not getattr(genesis, written) for s in snapshots)
    for snapshot in snapshots:
        for name in untouched:
            assert getattr(snapshot, name) is getattr(genesis, name), name


def test_proposal_snapshot_is_the_candidate_post_state(monkeypatch):
    model = TxModel.ACCOUNT
    genesis = Plain.of(FUNDING[model, False])

    def pay(sender, recipient, amount, nonce):
        secret, node_id = PARTIES[sender]
        body = AccountBody(PARTIES[recipient][1], amount, nonce)
        return make_transaction(STUB, secret, node_id, body)

    def ledger():
        return ChainState(CFG, STUB, FUNDING[model, False], coinbase_rule=RULES[model])

    state = ledger()
    first = minted(state.genesis, [pay(i, i + 1, 10, 0) for i in range(1, 5)], 0, model, 0)
    assert state.apply_block(first).stored
    # a conflicting pair (nonce 1 twice), a forged payment and fillers
    spend, clash = pay(1, 2, 5, 1), pay(1, 3, 6, 1)
    forged = Transaction(spend.sender, pay(1, 4, 7, 1).body, bytes(32))
    mempool = [spend, clash, forged, pay(5, 6, 1, 0), pay(6, 7, 1, 0), pay(2, 0, 3, 1)]
    candidate = propose_block(PARTIES[0][1], state, mempool, CFG)
    assert candidate.transactions == (spend,) + tuple(mempool[3:])

    expected = replay_ancestry(state, first.block_hash, genesis)
    for tx in candidate.transactions:
        expected.apply(tx)
    assert Plain.of(state.snapshots[candidate.block_hash]) == expected
    # a ledger that never saw the proposal
    fresh = ledger()
    assert fresh.apply_block(first).stored
    assert candidate.block_hash not in fresh.snapshots

    validated = []
    validate_tx = TxIndices.validate_tx
    monkeypatch.setattr(
        TxIndices,
        "validate_tx",
        lambda self, tx, scheme: validated.append(tx) or validate_tx(self, tx, scheme),
    )
    secret, witness = PARTIES[7]
    assert isinstance(sign_witness(secret, witness, candidate, state, CFG, {}), WitnessSignature)
    assert validated == []

    # the ledger that never saw the proposal runs the transactions itself
    assert isinstance(sign_witness(secret, witness, candidate, fresh, CFG, {}), WitnessSignature)
    assert validated == list(candidate.transactions)
    assert Plain.of(fresh.snapshots[candidate.block_hash]) == expected

    # the minted reward block is the candidate plus a coinbase: admitting it
    # runs no user transaction again, and its snapshot is the replay's
    block = minted(first, list(candidate.transactions), 0, model, expected.nonces[SYSTEM_ID])
    assert block.transactions[len(candidate.transactions) :]  # it carries a coinbase
    validated.clear()
    for ledger_state in (state, fresh):
        assert ledger_state.apply_block(block).stored
        assert validated == []
        replay = replay_ancestry(ledger_state, block.block_hash, genesis)
        assert Plain.of(ledger_state.snapshots[block.block_hash]) == replay


# -- the replay oracle and the value total, read through base and overlay -------------


def plain_total(plain: Plain) -> int:
    return sum(plain.balances.values()) + sum(out.amount for out in plain.utxos.values())


def rebuilt(plain: Plain) -> TxIndices:
    """The plain content as one fresh base with an empty overlay."""
    return TxIndices(
        dict(plain.balances), dict(plain.nonces), dict(plain.utxos), plain.issued, plain.burned
    )


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(TxModel), large=st.booleans(), data=st.data())
def test_snapshot_equality_and_total_value_match_plain_contents(model, large, data):
    # stored snapshots share a base (large) or have collapsed onto their own
    # (small); each one rebuilt as a fresh base has equal content on a
    # different base, and UTXO overlays carry tombstones
    genesis_indices = FUNDING[model, large]
    genesis = Plain.of(genesis_indices)
    state = ChainState(CFG, STUB, genesis_indices, coinbase_rule=RULES[model])
    stored = [state.genesis.block_hash]
    for _ in range(data.draw(st.integers(1, 8), label="blocks")):
        parent = state.blocks[stored[data.draw(st.integers(0, len(stored) - 1))]]
        work = replay_ancestry(state, parent.block_hash, genesis)
        system_nonce = work.nonces.get(SYSTEM_ID, 0)
        txs = draw_payments(data, model, work, data.draw(st.integers(4, 5)))
        block = minted(parent, txs, data.draw(st.integers(0, 7)), model, system_nonce)
        if state.apply_block(block).stored:
            stored.append(block.block_hash)

    snapshots = [stored_snapshot(state, h) for h in stored]
    plains = [Plain.of(s) for s in snapshots]
    snapshots += [rebuilt(p) for p in plains] + [state.replay_from_genesis()]
    plains += plains + [Plain.of(snapshots[-1])]
    for a, plain_a in zip(snapshots, plains):
        assert ledger.total_value(a) == plain_total(plain_a)
        for b, plain_b in zip(snapshots, plains):
            assert (a == b) is (plain_a == plain_b)


def test_equality_tells_a_zero_balance_from_an_absent_account():
    (_, a), (_, b) = PARTIES[:2]
    funded = fund_accounts({a: 5})
    assert TxIndices({a: 5, b: 0}, issued=5) != funded
    assert funded != TxIndices({a: 5, b: 0}, issued=5)
    assert TxIndices({a: 5}, issued=5) == funded
    # the same content on the same base, once through the overlay
    twin = funded.clone()
    twin._balances[b.public_key] = 0
    assert twin != funded and funded != twin
    twin._balances[b.public_key] = 1
    assert ledger.total_value(twin) == 6


def payment(model: TxModel, work: Plain, sender: int, recipient: NodeId) -> Transaction:
    """A valid payment on work (which it is applied to): 7 units, or one
    output of the sender's less one unit, burned."""
    secret, node = PARTIES[sender]
    if model is TxModel.ACCOUNT:
        body = AccountBody(recipient, 7, work.nonces.get(node, 0))
    else:
        op = next(op for op, out in work.utxos.items() if out.owner == node)
        body = UtxoBody((op,), (TxOutput(recipient, work.utxos[op].amount - 1),))
    tx = make_transaction(STUB, secret, node, body)
    work.apply(tx)
    return tx


def paid_ledger(model: TxModel, genesis_indices: TxIndices, blocks: int) -> ChainState:
    """A ledger with blocks of four payments each applied on one chain."""
    state = ChainState(CFG, STUB, genesis_indices, coinbase_rule=RULES[model])
    work = Plain.of(genesis_indices)
    for height in range(blocks):
        system_nonce = work.nonces.get(SYSTEM_ID, 0)
        txs = [payment(model, work, (height + i) % 8, PAYEES[height + i]) for i in range(4)]
        block = minted(state.head, txs, 0, model, system_nonce)
        assert state.apply_block(block).stored
        for tx in block.transactions[len(txs) :]:
            work.apply(tx)
    return state


def test_the_oracle_allocates_nothing_per_account():
    # merged copies of the maps on both sides would take about 5 MB here;
    # with a shared base and with a collapsed head the check stays under 1 MB
    nodes = [NodeId(sha256(b"oracle" + enc_u64(i)).digest()) for i in range(50_000)]
    alloc = dict.fromkeys(nodes, 1000)
    alloc.update({nid: 10**6 for _, nid in PARTIES})
    state = paid_ledger(TxModel.ACCOUNT, fund_accounts(alloc), 3)
    head = state.head_indices()
    for collapsed in (False, True):
        if collapsed:
            head._collapse()
        tracemalloc.start()
        try:
            state.assert_replay_matches()
            assert ledger.total_value(head) == head.issued - head.burned
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (collapsed, peak)


def unspent_grant(state: ChainState) -> Outpoint:
    """A filler's genesis output, never spent."""
    node = FILLER[5]
    genesis = state._checkpoints[state.genesis.block_hash]
    return next(op for op, out in genesis.utxos.items() if out.owner == node)


# (model, collapse the head first, corruption, expected field, its key)
CORRUPTIONS = {
    "issued": (TxModel.ACCOUNT, False, lambda s, h: setattr(h, "issued", h.issued + 1), "issued"),
    "burned": (TxModel.UTXO, False, lambda s, h: setattr(h, "burned", h.burned + 1), "burned"),
    "balance": (
        TxModel.ACCOUNT,
        False,
        lambda s, h: h._balances.__setitem__(PAYEES[1].public_key, 1),
        f"balances[{PAYEES[1].public_key.hex()}]",
    ),
    "nonce": (
        TxModel.ACCOUNT,
        False,
        lambda s, h: h._nonces.__setitem__(PARTIES[3][1].public_key, 9),
        f"nonces[{PARTIES[3][1].public_key.hex()}]",
    ),
    "spent output": (
        TxModel.UTXO,
        False,
        lambda s, h: h._utxos.__setitem__(unspent_grant(s), None),
        "utxos[{op.tx_id:x}:{op.index}]",
    ),
    "balance in a collapsed base": (
        TxModel.ACCOUNT,
        True,
        lambda s, h: h._balances_base.__setitem__(FILLER[5].public_key, 1),
        f"balances[{FILLER[5].public_key.hex()}]",
    ),
    "output missing from a collapsed base": (
        TxModel.UTXO,
        True,
        lambda s, h: h._utxos_base.pop(unspent_grant(s)),
        "utxos[{op.tx_id:x}:{op.index}]",
    ),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_the_oracle_names_the_first_divergence(case):
    model, collapse, corrupt, where = CORRUPTIONS[case]
    state = paid_ledger(model, FUNDING[model, True], 2)
    state.assert_replay_matches()
    head = state.head_indices()
    if collapse:
        head._collapse()  # a fresh base that only this snapshot holds
    corrupt(state, head)
    assert state.replay_from_genesis() != head
    if model is TxModel.UTXO:
        where = where.format(op=unspent_grant(state))
    with pytest.raises(LedgerInvariantError) as raised:
        state.assert_replay_matches()
    assert str(raised.value) == f"incremental indices diverged from genesis replay at {where}"
