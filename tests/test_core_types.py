"""Types, canonical bytes, hashing, and signature schemes."""

import hashlib
import pickle
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from scorechain import core_types
from scorechain.core_types import (
    AccountBody,
    Block,
    ChainConfig,
    COINBASE_INDEX,
    ED25519_KEY_CACHE,
    MAX_HASH,
    NodeId,
    Outpoint,
    SYSTEM_ID,
    SYSTEM_KEY,
    SerializationError,
    Transaction,
    TxModel,
    TxOutput,
    UtxoBody,
    block_core_bytes,
    coinbase_transaction,
    deserialize_block,
    deserialize_transaction,
    enc_bytes,
    enc_u8,
    enc_u32,
    enc_u64,
    enc_u256,
    genesis_block,
    get_scheme,
    hash256,
    make_transaction,
    serialize_block,
)
from scorechain.witness import distance

STUB = get_scheme("stub")


def keypair(tag: bytes):
    return STUB.keypair(tag)


def account_tx(sender_tag: bytes, recipient_tag: bytes, amount=5, nonce=0) -> Transaction:
    secret, sender = keypair(sender_tag)
    _, recipient = keypair(recipient_tag)
    return make_transaction(STUB, secret, sender, AccountBody(recipient, amount, nonce))


def utxo_tx(sender_tag: bytes, recipient_tag: bytes, tx_id=7, amount=5) -> Transaction:
    secret, sender = keypair(sender_tag)
    _, recipient = keypair(recipient_tag)
    body = UtxoBody((Outpoint(tx_id, 0),), (TxOutput(recipient, amount),))
    return make_transaction(STUB, secret, sender, body)


# -- hashing oracles ----------------------------------------------------------


def test_hash256_matches_sha256_oracles():
    # independently computed with hashlib
    assert hash256(b"") == int(hashlib.sha256(b"").hexdigest(), 16)
    assert (
        hash256(b"abc")
        == 0xBA7816BF8F01CFEA414140DE5DAE2223B00361A396177A9CB410FF61F20015AD
    )


def test_hash256_range():
    assert 0 <= hash256(b"anything") <= MAX_HASH


# -- integer encoders ---------------------------------------------------------


def test_encoders_fixed_widths():
    assert enc_u8(0x7F) == b"\x7f"
    assert enc_u32(1) == b"\x00\x00\x00\x01"
    assert enc_u64(1) == b"\x00\x00\x00\x00\x00\x00\x00\x01"
    assert len(enc_u256(MAX_HASH)) == 32
    assert enc_bytes(b"ab") == b"\x00\x00\x00\x02ab"


def test_encoders_reject_out_of_range():
    with pytest.raises(SerializationError):
        enc_u8(256)
    with pytest.raises(SerializationError):
        enc_u32(-1)
    with pytest.raises(SerializationError):
        enc_u64(1 << 64)
    with pytest.raises(SerializationError):
        enc_u256(MAX_HASH + 1)


# -- node identity ------------------------------------------------------------


def test_node_id_equality_and_hash():
    _, a = keypair(b"a")
    _, a2 = keypair(b"a")
    _, b = keypair(b"b")
    assert a == a2 and hash(a) == hash(a2)
    assert a != b
    assert len({a, a2, b}) == 2
    assert a.hex() == a.public_key.hex()


def test_node_id_digest_is_computed_when_first_read(monkeypatch):
    key = hashlib.sha256(b"lazy").digest()
    calls = []
    monkeypatch.setattr(core_types, "hash256", lambda data: calls.append(data) or hash256(data))
    node = NodeId(key)
    assert calls == []
    assert node.key_digest == hash256(key)
    assert node.key_digest == hash256(key)
    assert calls == [key]  # read twice, computed once


def test_node_id_equality_ignores_whether_the_digest_was_read():
    key = hashlib.sha256(b"twin").digest()
    read, unread = NodeId(key), NodeId(key)
    assert read.key_digest == hash256(key)  # only one side has its digest cached
    for a, b in [(read, unread), (pickle.loads(pickle.dumps(read)), unread),
                 (read, pickle.loads(pickle.dumps(unread)))]:
        assert a == b and b == a and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.key_digest == b.key_digest == hash256(key)


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
def test_distance_is_the_xor_of_eager_digests(a, b):
    eager = hash256(a) ^ hash256(b)
    assert distance(NodeId(a), NodeId(b)) == eager
    assert distance(NodeId(b), NodeId(a)) == eager


def test_node_id_rejects_bad_key_length():
    with pytest.raises(ValueError):
        NodeId(b"short")


def test_system_id_is_all_zero_key():
    assert SYSTEM_ID.public_key == SYSTEM_KEY == bytes(32)


# -- transactions -------------------------------------------------------------


def test_account_tx_round_trip():
    tx = account_tx(b"s", b"r", amount=42, nonce=3)
    again = deserialize_transaction(tx.canonical_bytes)
    assert again == tx
    assert again.tx_id == tx.tx_id
    assert again.model is TxModel.ACCOUNT
    assert again.body.amount == 42
    assert again.body.nonce == 3


def test_utxo_tx_round_trip():
    tx = utxo_tx(b"s", b"r", tx_id=99, amount=17)
    again = deserialize_transaction(tx.canonical_bytes)
    assert again == tx
    assert again.model is TxModel.UTXO
    assert again.body.inputs == (Outpoint(99, 0),)
    assert again.body.outputs[0].amount == 17


def test_tx_id_covers_signature():
    secret, sender = keypair(b"s")
    _, recipient = keypair(b"r")
    body = AccountBody(recipient, 5, 0)
    tx = make_transaction(STUB, secret, sender, body)
    forged = Transaction(sender, body, b"\x00" * 64)
    assert forged.signing_bytes == tx.signing_bytes
    assert forged.tx_id != tx.tx_id


def test_make_transaction_encodes_its_core_once(monkeypatch):
    secret, sender = keypair(b"s")
    _, recipient = keypair(b"r")
    bodies = [
        AccountBody(recipient, 5, 0),
        UtxoBody((Outpoint(7, 0), Outpoint(8, 2)), (TxOutput(recipient, 5),)),
    ]
    encode = core_types._tx_core_bytes
    calls = []
    monkeypatch.setattr(
        core_types, "_tx_core_bytes", lambda *args: calls.append(args) or encode(*args)
    )
    for body in bodies:
        calls.clear()
        tx = make_transaction(STUB, secret, sender, body)
        assert len(calls) == 1
        fresh = Transaction(sender, body, tx.signature)  # encodes its own core
        assert tx.signing_bytes == fresh.signing_bytes
        assert tx.canonical_bytes == fresh.canonical_bytes
        assert tx.tx_id == fresh.tx_id
        assert STUB.verify(sender, tx.signing_bytes, tx.signature)


def test_signature_verifies_over_signing_bytes():
    tx = account_tx(b"s", b"r")
    assert STUB.verify(tx.sender, tx.signing_bytes, tx.signature)
    assert not STUB.verify(tx.sender, tx.signing_bytes + b"x", tx.signature)


def test_tx_deserialize_rejects_corrupt_bytes():
    tx = account_tx(b"s", b"r")
    raw = bytearray(tx.canonical_bytes)
    raw[0] ^= 0xFF  # break the format tag
    with pytest.raises(SerializationError):
        deserialize_transaction(bytes(raw))
    with pytest.raises(SerializationError):
        deserialize_transaction(tx.canonical_bytes + b"\x00")
    with pytest.raises(SerializationError):
        deserialize_transaction(tx.canonical_bytes[:-1])


def test_coinbase_detection():
    _, recipient = keypair(b"r")
    cb = coinbase_transaction(AccountBody(recipient, 50, 0))
    assert cb.is_coinbase()
    assert cb.sender == SYSTEM_ID
    assert not account_tx(b"s", b"r").is_coinbase()


def test_utxo_body_rejects_bad_shapes():
    _, recipient = keypair(b"r")
    with pytest.raises(ValueError):
        TxOutput(recipient, -1)
    with pytest.raises(ValueError):
        Outpoint(-1, 0)
    with pytest.raises(ValueError):
        Outpoint(0, COINBASE_INDEX + 1)


# -- blocks -------------------------------------------------------------------


def make_block(n_txs=4, parent_hash=1, height=1, witness_tags=()):
    txs = tuple(account_tx(bytes([i]), b"r", nonce=i) for i in range(n_txs))
    _, proposer = keypair(b"proposer")
    block = Block(parent_hash, height, proposer, txs)
    sigs = []
    for tag in witness_tags:
        secret, wid = keypair(tag)
        sigs.append((wid, STUB.sign(secret, enc_u256(block.block_hash))))
    return replace(block, witness_sigs=tuple(sigs))


def test_block_round_trip_with_witnesses():
    block = make_block(witness_tags=(b"w1", b"w2"))
    again = deserialize_block(serialize_block(block))
    assert again == block
    assert again.block_hash == block.block_hash
    assert again.witness_sigs == block.witness_sigs


def test_block_hash_excludes_witness_signatures():
    bare = make_block()
    endorsed = make_block(witness_tags=(b"w1",))
    assert bare.block_hash == endorsed.block_hash
    assert bare != endorsed  # equality covers the witness set


def test_block_hash_covers_core_fields():
    base = make_block()
    assert make_block(parent_hash=2).block_hash != base.block_hash
    assert make_block(height=2).block_hash != base.block_hash
    assert make_block(n_txs=5).block_hash != base.block_hash


def test_block_core_bytes_matches_block():
    block = make_block()
    assert (
        block_core_bytes(
            block.parent_hash, block.height, block.proposer, block.transactions
        )
        == block.core_bytes
    )


def test_block_deserialize_rejects_corrupt_bytes():
    raw = bytearray(serialize_block(make_block(witness_tags=(b"w",))))
    raw[-1] ^= 0xFF
    block = deserialize_block(bytes(raw))  # flipped signature byte still parses
    assert block.witness_sigs[0][1] != make_block(witness_tags=(b"w",)).witness_sigs[0][1]
    with pytest.raises(SerializationError):
        deserialize_block(bytes(raw)[:-3])


def test_user_transactions_excludes_coinbase():
    _, recipient = keypair(b"r")
    cb = coinbase_transaction(AccountBody(recipient, 50, 0))
    txs = tuple(account_tx(bytes([i]), b"r", nonce=i) for i in range(2)) + (cb,)
    _, proposer = keypair(b"proposer")
    block = Block(1, 1, proposer, txs)
    assert cb not in block.user_transactions()
    assert len(block.user_transactions()) == 2


@given(
    model=st.sampled_from(TxModel),
    users=st.integers(0, 5),
    coinbases=st.integers(0, 2),
    data=st.data(),
    parent_hash=st.integers(0, MAX_HASH),
    height=st.integers(1, 2**40),
    witnessed=st.booleans(),
)
def test_candidate_of_equals_the_built_candidate(
    model, users, coinbases, data, parent_hash, height, witnessed
):
    # a minted block's prefix, sliced from its core bytes, is the Block that
    # the prefix builds, in every field
    _, owner = keypair(b"owner")
    if model is TxModel.ACCOUNT:
        txs = [account_tx(bytes([i]), b"r", amount=i, nonce=i) for i in range(users)]
        tail = [coinbase_transaction(AccountBody(owner, 50 + i, i)) for i in range(coinbases)]
    else:
        txs = [utxo_tx(bytes([i]), b"r", tx_id=i, amount=i) for i in range(users)]
        marker = (Outpoint(height, COINBASE_INDEX),)
        tail = [
            coinbase_transaction(UtxoBody(marker, (TxOutput(owner, 50 + i),)))
            for i in range(coinbases)
        ]
    _, proposer = keypair(b"proposer")
    block = Block(parent_hash, height, proposer, tuple(txs + tail))
    if witnessed:
        block = replace(block, witness_sigs=((owner, b"\x01" * 64),))
    cut = data.draw(st.integers(0, len(block.transactions)), label="cut")
    derived = core_types.candidate_of(block, cut)
    built = Block(parent_hash, height, proposer, block.transactions[:cut])
    for name in Block.__slots__:
        assert getattr(derived, name) == getattr(built, name), name


# -- chain config and genesis -------------------------------------------------


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(tx_count_min=0)
    with pytest.raises(ValueError):
        ChainConfig(witness_m=0)
    with pytest.raises(ValueError):
        ChainConfig(confirm_depth=0)
    with pytest.raises(ValueError):
        ChainConfig(witness_threshold=0)


def test_genesis_is_deterministic_and_config_bound():
    cfg = ChainConfig()
    g1, g2 = genesis_block(cfg), genesis_block(ChainConfig())
    assert g1.block_hash == g2.block_hash
    assert g1.height == 0
    assert g1.parent_hash == 0
    assert g1.transactions == ()
    other = genesis_block(ChainConfig(witness_m=3))
    assert other.block_hash != g1.block_hash


# -- signature schemes --------------------------------------------------------


def test_stub_scheme_sign_verify():
    secret, node = STUB.keypair(b"k")
    sig = STUB.sign(secret, b"msg")
    assert STUB.verify(node, b"msg", sig)
    assert not STUB.verify(node, b"other", sig)
    _, other = STUB.keypair(b"k2")
    assert not STUB.verify(other, b"msg", sig)


def test_ed25519_scheme_sign_verify():
    scheme = get_scheme("ed25519")
    secret, node = scheme.keypair(b"k")
    sig = scheme.sign(secret, b"msg")
    assert scheme.verify(node, b"msg", sig)
    assert not scheme.verify(node, b"other", sig)
    assert not scheme.verify(node, b"msg", sig[:-1] + bytes([sig[-1] ^ 1]))


def test_ed25519_cached_keys_sign_as_freshly_loaded_ones():
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    scheme = get_scheme("ed25519")
    secret, node = scheme.keypair(b"cache")
    fresh = Ed25519PrivateKey.from_private_bytes(secret)
    for msg in (b"first", b"second", b"first"):
        assert scheme.sign(secret, msg) == fresh.sign(msg)
    assert node.public_key == fresh.public_key().public_bytes_raw()


@given(seed=st.binary(max_size=16), message=st.binary(max_size=200))
def test_signing_is_deterministic(seed, message):
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    for scheme in (STUB, get_scheme("ed25519")):
        secret, node = scheme.keypair(seed)
        first = scheme.sign(secret, message)
        assert scheme.sign(secret, message) == first
        assert scheme.verify(node, message, first)
    # and the same bytes as a key loaded afresh
    assert first == Ed25519PrivateKey.from_private_bytes(secret).sign(message)


def test_ed25519_malformed_public_key_fails_every_time():
    scheme = get_scheme("ed25519")
    secret, _ = scheme.keypair(b"malformed")
    sig = scheme.sign(secret, b"msg")
    cache = core_types._ed25519_public
    before = cache.cache_info()
    malformed = SimpleNamespace(public_key=bytes(31))  # NodeId refuses to hold it
    assert [scheme.verify(malformed, b"msg", sig) for _ in range(2)] == [False, False]
    after = cache.cache_info()
    # the load raised both times, so nothing was stored
    assert after.misses == before.misses + 2
    assert after.currsize == before.currsize


def test_ed25519_key_cache_stays_bounded():
    scheme = get_scheme("ed25519")
    for i in range(ED25519_KEY_CACHE + 20):
        secret, node = scheme.keypair(b"bound" + i.to_bytes(2, "big"))
        assert scheme.verify(node, b"msg", scheme.sign(secret, b"msg"))
    for cache in (core_types._ed25519_private, core_types._ed25519_public):
        info = cache.cache_info()
        assert info.maxsize == ED25519_KEY_CACHE
        assert info.currsize == ED25519_KEY_CACHE


def test_keypairs_are_seed_deterministic():
    for scheme_name in ("stub", "ed25519"):
        scheme = get_scheme(scheme_name)
        assert scheme.keypair(b"x") == scheme.keypair(b"x")
        assert scheme.keypair(b"x")[1] != scheme.keypair(b"y")[1]


def test_unknown_scheme_raises():
    with pytest.raises(ValueError):
        get_scheme("nope")


def test_serialization_fuzz_round_trip():
    rng = random.Random(0)
    for _ in range(50):
        if rng.random() < 0.5:
            tx = account_tx(
                rng.randbytes(4), rng.randbytes(4), rng.randrange(1, 99), rng.randrange(9)
            )
        else:
            tx = utxo_tx(rng.randbytes(4), rng.randbytes(4), rng.randrange(1 << 32))
        assert deserialize_transaction(tx.canonical_bytes) == tx
