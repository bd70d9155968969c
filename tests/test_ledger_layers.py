"""Layered ledger snapshots against a plain-dict replay, on random block trees.

Each stored snapshot is a shared base, a shared level of later writes and its
own writes. These tests rebuild every stored snapshot's content from genesis
with plain dicts and require equality, in both transaction models, with a
base small enough to collapse every few blocks and one too large to collapse
in a test's blocks.
"""

import random
import tracemalloc
from dataclasses import dataclass
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from scorechain import core_types, ledger
from scorechain.core_types import (
    AccountBody,
    Block,
    COINBASE_INDEX,
    ChainConfig,
    NodeId,
    Outpoint,
    SYSTEM_ID,
    Transaction,
    TxModel,
    TxOutput,
    UtxoBody,
    coinbase_transaction,
    enc_u64,
    enc_u256,
    get_scheme,
    make_transaction,
)
from scorechain.incentive import RewardSchedule, make_coinbase_rule
from scorechain.ledger import (
    ChainState,
    HeightCache,
    LedgerInvariantError,
    TxIndices,
    TxReject,
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


MAPS = ("balances", "nonces", "utxos")


def levels(indices: TxIndices) -> list:
    """Each map's own, shared and base level objects."""
    return [getattr(indices, f"_{m}{level}") for m in MAPS for level in ("", "_shared", "_base")]


# (funded accounts, payees before a first fold, payees after it, folds, collapses)
RULE_EDGES = [
    # own**2 > 64 * (shared + 1) folds; right after a fold,
    # shared**2 > 64 * (base + 1) collapses. Writes are the sender's nonce
    # and balance, then one balance per payee
    (8, 0, 6, False, False),  # own 8: 64 <= 64 * 1
    (8, 0, 7, True, False),  # own 9: 81 > 64; shared 9: 81 <= 64 * 9
    (8, 0, 22, True, False),  # shared 24: 576 <= 576
    (8, 0, 23, True, True),  # shared 25: 625 > 576
    (308, 7, 23, False, False),  # over shared 9, own 25: 625 <= 640
    (308, 7, 24, True, False),  # own 26: 676 > 640; shared 33: 1,089 <= 19,776
    (308, 0, 138, True, False),  # shared 140: 19,600 <= 64 * 309
    (308, 0, 139, True, True),  # shared 141: 19,881 > 19,776
]


def test_clone_collapses_exactly_past_the_rule():
    secret, sender = PARTIES[0]
    for funded, first, payees, folds, collapses in RULE_EDGES:
        owners = [nid for _, nid in PARTIES] + FILLER[600 - (funded - len(PARTIES)) :]
        indices = fund_accounts(dict.fromkeys(owners, 10**6))
        payments = [
            make_transaction(STUB, secret, sender, AccountBody(payee, 1, nonce))
            for nonce, payee in enumerate(FILLER[: first + payees])
        ]
        for tx in payments[:first]:
            indices.apply_tx(tx)
        if first:  # a first fold: a shared level of the nonce and first + 1 balances
            indices.clone()
            assert not indices._balances and len(indices._balances_shared) == first + 1
        for tx in payments[first:]:
            indices.apply_tx(tx)
        content = Plain.of(indices)
        _, shared, base, *_, utxo_base = levels(indices)
        twin = indices.clone()
        assert (indices._balances_shared is not shared) is folds
        assert (indices._balances_base is not base) is collapses
        assert (not indices._balances and not indices._nonces) is folds
        if collapses:
            assert levels(indices)[1::3] == [{}, {}, {}]
        assert indices._utxos_base is utxo_base  # nothing wrote it
        # the clone copies the own levels and shares the rest
        for level, (mine, theirs) in enumerate(zip(levels(indices), levels(twin))):
            assert (mine is theirs) is (level % 3 > 0)
        assert Plain.of(indices) == Plain.of(twin) == content


@pytest.mark.parametrize(
    "model, blocks, written, untouched",
    [
        (TxModel.ACCOUNT, 16, "_balances_base", ["_utxos_base"]),
        (TxModel.UTXO, 9, "_utxos_base", ["_balances_base", "_nonces_base"]),
    ],
    ids=["ACCOUNT", "UTXO"],
)
def test_collapse_keeps_the_base_of_an_untouched_map(model, blocks, written, untouched):
    # account payments never write the UTXO map, and UTXO payments never
    # write balances or nonces: once the written map's shared level has
    # collapsed into a fresh base, every snapshot still shares the genesis
    # base of the rest
    genesis = FUNDING[model, False]
    snapshots = paid_ledger(model, genesis, blocks).snapshots.values()
    assert any(getattr(s, written) is not getattr(genesis, written) for s in snapshots)
    for snapshot in snapshots:
        for name in untouched:
            assert getattr(snapshot, name) is getattr(genesis, name), name


@pytest.mark.parametrize("model, blocks", [(TxModel.ACCOUNT, 14), (TxModel.UTXO, 9)])
def test_a_stored_snapshot_reads_the_same_after_a_descendant_folds_or_collapses(
    model, blocks, monkeypatch
):
    # cutting a clone may fold or collapse, in place, the snapshot it is cut
    # from, which the store still holds and earlier clones share levels with
    stored = []  # (snapshot, its content, its level objects) as it was stored
    put = HeightCache.put

    def recording(cache, height, key, value):
        if isinstance(value, TxIndices):
            stored.append((value, Plain.of(value), levels(value)))
        put(cache, height, key, value)

    monkeypatch.setattr(HeightCache, "put", recording)
    state = paid_ledger(model, FUNDING[model, False], blocks)
    assert len(stored) == len(state.snapshots) == 2 * blocks  # candidates and blocks
    rebuilt = set()
    for snapshot, content, before in stored:
        assert Plain.of(snapshot) == content
        after = levels(snapshot)
        rebuilt.update(level % 3 for level in range(9) if after[level] is not before[level])
    assert {1, 2} <= rebuilt  # some stored snapshot folded, and some collapsed


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


# -- validate_tx checks and applies in one pass --------------------------------------


def pure_verdict(plain: Plain, tx: Transaction) -> "TxReject | None":
    """The verdict of a check that writes nothing, on plain dicts: the rules
    of validate_tx as they were before it also applied what it passed."""
    if tx.is_coinbase():
        return TxReject.BAD_COINBASE
    body = tx.body
    if isinstance(body, AccountBody):
        expected = plain.nonces.get(tx.sender, 0)
        if body.nonce < expected:
            return TxReject.NONCE_REUSE
        if body.nonce > expected:
            return TxReject.NONCE_FUTURE
        if plain.balances.get(tx.sender, 0) < body.amount:
            return TxReject.INSUFFICIENT_FUNDS
    else:
        if not body.inputs:
            return TxReject.EMPTY_INPUTS
        if not body.outputs:
            return TxReject.EMPTY_OUTPUTS
        if len(set(body.inputs)) != len(body.inputs):
            return TxReject.DOUBLE_SPEND
        in_sum = 0
        for op in body.inputs:
            held = plain.utxos.get(op)
            if held is None:
                return TxReject.UNKNOWN_INPUT
            if held.owner != tx.sender:
                return TxReject.WRONG_OWNER
            in_sum += held.amount
        if sum(out.amount for out in body.outputs) > in_sum:
            return TxReject.OUTPUT_EXCEEDS_INPUT
    if not STUB.verify(tx.sender, tx.signing_bytes, tx.signature):
        return TxReject.BAD_SIGNATURE
    return None


# the ways a transaction is refused, besides a coinbase and a forged signature
REFUSALS = {
    TxModel.ACCOUNT: ["reused nonce", "future nonce", "unfunded"],
    TxModel.UTXO: ["double spend", "respent", "unknown input", "stolen", "inflated"],
}


def draw_transaction(data, model: TxModel, work: Plain, spent: list) -> Transaction:
    """A payment valid on work, or a transaction refused there; spent lists
    the outputs spent on the way to work."""
    kind = data.draw(st.sampled_from(["valid", "coinbase", "forged"] + REFUSALS[model]))
    secret, sender = PARTIES[data.draw(st.integers(0, len(PARTIES) - 1))]
    payee = PAYEES[data.draw(st.integers(0, len(PAYEES) - 1))]
    if model is TxModel.UTXO and not {out.owner for out in work.utxos.values()} & set(PAYEES[:8]):
        kind = {"valid": "unknown input", "forged": "unknown input"}.get(kind, kind)
    if kind in ("valid", "forged"):
        tx = draw_payments(data, model, work.copy(), 1)[0]
        return tx if kind == "valid" else Transaction(tx.sender, tx.body, bytes(32))
    if kind == "coinbase":
        if model is TxModel.ACCOUNT:
            return coinbase_transaction(AccountBody(payee, 50, work.nonces.get(SYSTEM_ID, 0)))
        marker = Outpoint(1, COINBASE_INDEX)
        return coinbase_transaction(UtxoBody((marker,), (TxOutput(payee, 50),)))
    if model is TxModel.ACCOUNT:
        nonce = work.nonces.get(sender, 0)
        body = {
            "reused nonce": AccountBody(payee, 1, max(nonce - 1, 0)),  # valid while unused
            "future nonce": AccountBody(payee, 1, nonce + 1),
            "unfunded": AccountBody(payee, work.balances.get(sender, 0) + 1, nonce),
        }[kind]
    else:
        ghost = Outpoint(12345, 0)
        mine = [op for op, out in work.utxos.items() if out.owner == sender] or [ghost]
        theirs = [op for op, out in work.utxos.items() if out.owner != sender] or [ghost]
        inputs = {
            "double spend": (mine[0], mine[0]),
            "respent": (spent[-1] if spent else ghost,),
            "unknown input": (ghost,),
            "stolen": (theirs[0],),
            "inflated": (mine[0],),
        }[kind]
        body = UtxoBody(inputs, (TxOutput(payee, 10**9 if kind == "inflated" else 1),))
    return make_transaction(STUB, secret, sender, body)


@settings(max_examples=80, deadline=None)
@given(model=st.sampled_from(TxModel), data=st.data())
def test_validate_tx_applies_exactly_what_it_passes(model, data):
    # a random run of payments and refusals on one snapshot, cloned before
    # each one, which now and then folds or collapses it: a refusal leaves
    # it equal to that clone, a pass equal to the clone plus apply_tx
    indices = FUNDING[model, False].clone()
    work, spent = Plain.of(indices), []
    for _ in range(data.draw(st.integers(1, 40), label="transactions")):
        tx = draw_transaction(data, model, work, spent)
        before = indices.clone()
        verdict = indices.validate_tx(tx, STUB)
        assert verdict is pure_verdict(work, tx)
        if verdict is None:
            before.apply_tx(tx)
            work.apply(tx)
            if model is TxModel.UTXO:
                spent += tx.body.inputs
        assert indices == before
        assert Plain.of(indices) == work


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


# (model, how the head is first rebuilt in place, corruption, expected field, its key)
CORRUPTIONS = {
    "issued": (TxModel.ACCOUNT, None, lambda s, h: setattr(h, "issued", h.issued + 1), "issued"),
    "burned": (TxModel.UTXO, None, lambda s, h: setattr(h, "burned", h.burned + 1), "burned"),
    "balance": (
        TxModel.ACCOUNT,
        None,
        lambda s, h: h._balances.__setitem__(PAYEES[1].public_key, 1),
        f"balances[{PAYEES[1].public_key.hex()}]",
    ),
    "nonce": (
        TxModel.ACCOUNT,
        None,
        lambda s, h: h._nonces.__setitem__(PARTIES[3][1].public_key, 9),
        f"nonces[{PARTIES[3][1].public_key.hex()}]",
    ),
    "spent output": (
        TxModel.UTXO,
        None,
        lambda s, h: h._utxos.__setitem__(unspent_grant(s), None),
        "utxos[{op.tx_id:x}:{op.index}]",
    ),
    "spent output in a folded shared level": (
        TxModel.UTXO,
        "_fold",
        lambda s, h: h._utxos_shared.__setitem__(unspent_grant(s), None),
        "utxos[{op.tx_id:x}:{op.index}]",
    ),
    "balance in a collapsed base": (
        TxModel.ACCOUNT,
        "_collapse",
        lambda s, h: h._balances_base.__setitem__(FILLER[5].public_key, 1),
        f"balances[{FILLER[5].public_key.hex()}]",
    ),
    "output missing from a collapsed base": (
        TxModel.UTXO,
        "_collapse",
        lambda s, h: h._utxos_base.pop(unspent_grant(s)),
        "utxos[{op.tx_id:x}:{op.index}]",
    ),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_the_oracle_names_the_first_divergence(case):
    model, rebuild, corrupt, where = CORRUPTIONS[case]
    state = paid_ledger(model, FUNDING[model, True], 2)
    state.assert_replay_matches()
    head = state.head_indices()
    if rebuild is not None:
        # a fresh shared level, or base, that only this snapshot holds
        getattr(head, rebuild)()
    corrupt(state, head)
    assert state.replay_from_genesis() != head
    if model is TxModel.UTXO:
        where = where.format(op=unspent_grant(state))
    with pytest.raises(LedgerInvariantError) as raised:
        state.assert_replay_matches()
    assert str(raised.value) == f"incremental indices diverged from genesis replay at {where}"


# -- what a block copies ---------------------------------------------------------------


def test_a_pipeline_block_copies_few_state_entries(monkeypatch):
    # the ledger_100k benchmark's pipeline at 20,000 accounts: 8 payments
    # per block, proposed, witnessed, minted and applied, for 100 blocks.
    # Counted per block: the own levels clone() copies, and every entry of
    # each fresh shared level or base a fold or collapse builds
    accounts, blocks, validators = 20_000, 100, 8
    rng = random.Random(5)
    keys = [STUB.keypair(b"copied" + enc_u64(i)) for i in range(accounts)]
    state = ChainState(CFG, STUB, fund_accounts({nid: 10**9 for _, nid in keys}))
    copied = []
    clone = TxIndices.clone

    def counting(indices):
        before = levels(indices)
        twin = clone(indices)
        after = levels(indices)
        count = sum(map(len, levels(twin)[::3]))
        for own, shared, base, fresh_shared, fresh_base in zip(
            before[::3], before[1::3], before[2::3], after[1::3], after[2::3]
        ):
            if fresh_base is not base:  # a fold, if this map had own writes, then a collapse
                count += len(fresh_base) + (len(shared.keys() | own.keys()) if own else 0)
            elif fresh_shared is not shared:
                count += len(fresh_shared)
        copied.append(count)
        return twin

    monkeypatch.setattr(TxIndices, "clone", counting)
    nonces = {}
    logs = [{} for _ in range(validators)]
    for height in range(blocks):
        batch = []
        for _ in range(8):
            sender = rng.randrange(validators, accounts)
            recipient = rng.randrange(accounts - 1)
            recipient += recipient >= sender
            nonce = nonces[sender] = nonces.get(sender, -1) + 1
            body = AccountBody(keys[recipient][1], rng.randint(1, 1000), nonce)
            batch.append(make_transaction(STUB, *keys[sender], body))
        proposer, *witnesses = [(height + k) % validators for k in range(3)]
        candidate = propose_block(keys[proposer][1], state, batch, CFG)
        sigs = [sign_witness(*keys[w], candidate, state, CFG, logs[w]) for w in witnesses]
        assert state.apply_block(mint_block(candidate, sigs, CFG, STUB)).stored
    assert len(copied) == blocks  # one clone per block, the proposal's
    assert sum(copied) / blocks <= 400
