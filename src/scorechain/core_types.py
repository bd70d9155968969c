"""Canonical data types, byte serialization, hashing, and signatures.

Everything downstream (scores, ids, witness digests) is defined over the
canonical byte layout produced here, so the layout is versioned and bit-exact:
fixed field order, big-endian fixed-width integers, length-prefixed variable
parts. See docs/serialization.md for the full record grammar.

All types are immutable after construction and all operations are pure; no
wall-clock reads, and the only global mutable state is the bounded memo of
loaded Ed25519 key objects, which changes no answer.
"""

from __future__ import annotations

import functools
import hashlib
from abc import ABC, abstractmethod
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Sequence, Union

# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

FORMAT_TAG = 0x01  # bump on any layout change

REC_TX = 0x01
REC_BLOCK = 0x02
REC_CONFIG = 0x03

HASH_BITS = 256
MAX_HASH = (1 << HASH_BITS) - 1
ZERO_HASH = 0

KEY_LEN = 32
MAX_U32 = (1 << 32) - 1
MAX_U64 = (1 << 64) - 1

# Reserved sender key for system-issued (coinbase) transactions.
SYSTEM_KEY = bytes(KEY_LEN)

# Output index marking the height slot of a coinbase input (UTXO model).
COINBASE_INDEX = MAX_U32


class SerializationError(ValueError):
    """Raised when bytes do not parse as a canonical record."""


# ---------------------------------------------------------------------------
# primitive encoders
# ---------------------------------------------------------------------------


def enc_u8(value: int) -> bytes:
    if not 0 <= value <= 0xFF:
        raise SerializationError(f"u8 out of range: {value}")
    return value.to_bytes(1, "big")


def enc_u32(value: int) -> bytes:
    if not 0 <= value <= MAX_U32:
        raise SerializationError(f"u32 out of range: {value}")
    return value.to_bytes(4, "big")


def enc_u64(value: int) -> bytes:
    if not 0 <= value <= MAX_U64:
        raise SerializationError(f"u64 out of range: {value}")
    return value.to_bytes(8, "big")


def enc_u256(value: int) -> bytes:
    if not 0 <= value <= MAX_HASH:
        raise SerializationError(f"u256 out of range: {value}")
    return value.to_bytes(32, "big")


def enc_bytes(data: bytes) -> bytes:
    return enc_u32(len(data)) + data


class _Reader:
    """Cursor over a byte buffer; every read checks remaining length."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise SerializationError("truncated record")
        out = self.buf[self.pos : end]
        self.pos = end
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def u256(self) -> int:
        return int.from_bytes(self.take(32), "big")

    def var_bytes(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> bool:
        return self.pos == len(self.buf)


def hash256(data: bytes) -> int:
    """SHA-256 digest of ``data`` as a big-endian 256-bit unsigned integer."""
    return int.from_bytes(hashlib.sha256(data).digest(), "big")


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class NodeId:
    """A node identity: an opaque 32-byte public key.

    key_digest = hash256(public_key), the input to the witness distance. It
    is computed when first read and then kept, since most identities (every
    funded account, every decoded sender and recipient) never need it.
    Equality and hashing go through the key bytes alone, so two NodeIds are
    equal iff their keys are equal, whether or not a digest was read.
    """

    public_key: bytes
    _digest: "int | None" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.public_key, bytes) or len(self.public_key) != KEY_LEN:
            raise ValueError(f"public key must be {KEY_LEN} bytes")

    @property
    def key_digest(self) -> int:
        digest = self._digest
        if digest is None:
            digest = hash256(self.public_key)
            object.__setattr__(self, "_digest", digest)
        return digest

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeId) and self.public_key == other.public_key

    def __hash__(self) -> int:
        return hash(self.public_key)

    def hex(self) -> str:
        return self.public_key.hex()


SYSTEM_ID = NodeId(SYSTEM_KEY)


# ---------------------------------------------------------------------------
# transactions
# ---------------------------------------------------------------------------


class TxModel(Enum):
    ACCOUNT = 0x01
    UTXO = 0x02


@dataclass(frozen=True, slots=True)
class Outpoint:
    """Reference to one output of an earlier transaction.

    Its hash is computed once, at construction: outpoints key the UTXO maps,
    whose every lookup would otherwise hash a fresh tuple.
    """

    tx_id: int
    index: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.tx_id <= MAX_HASH:
            raise ValueError("outpoint tx_id out of range")
        if not 0 <= self.index <= MAX_U32:
            raise ValueError("outpoint index out of range")
        object.__setattr__(self, "_hash", hash((self.tx_id, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def encode(self) -> bytes:
        return enc_u256(self.tx_id) + enc_u32(self.index)


@dataclass(frozen=True, slots=True)
class TxOutput:
    owner: NodeId
    amount: int

    def __post_init__(self) -> None:
        if not 0 <= self.amount <= MAX_U64:
            raise ValueError("output amount out of range")

    def encode(self) -> bytes:
        return self.owner.public_key + enc_u64(self.amount)


@dataclass(frozen=True, slots=True)
class AccountBody:
    """Single-recipient transfer consuming (sender, nonce)."""

    recipient: NodeId
    amount: int
    nonce: int

    def __post_init__(self) -> None:
        if not 0 <= self.amount <= MAX_U64:
            raise ValueError("amount out of range")
        if not 0 <= self.nonce <= MAX_U64:
            raise ValueError("nonce out of range")


@dataclass(frozen=True, slots=True)
class UtxoBody:
    """Multi-input multi-output transfer consuming outpoints."""

    inputs: tuple[Outpoint, ...]
    outputs: tuple[TxOutput, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(self.inputs) > MAX_U32 or len(self.outputs) > MAX_U32:
            raise ValueError("input/output list too long")


TxBody = Union[AccountBody, UtxoBody]


def _body_model(body: TxBody) -> TxModel:
    return TxModel.ACCOUNT if isinstance(body, AccountBody) else TxModel.UTXO


def _encode_body(body: TxBody) -> bytes:
    if isinstance(body, AccountBody):
        return body.recipient.public_key + enc_u64(body.amount) + enc_u64(body.nonce)
    parts = [enc_u32(len(body.inputs))]
    parts += [op.encode() for op in body.inputs]
    parts.append(enc_u32(len(body.outputs)))
    parts += [out.encode() for out in body.outputs]
    return b"".join(parts)


def _tx_core_bytes(sender: NodeId, body: TxBody) -> bytes:
    return (
        enc_u8(FORMAT_TAG)
        + enc_u8(REC_TX)
        + enc_u8(_body_model(body).value)
        + sender.public_key
        + _encode_body(body)
    )


@dataclass(frozen=True, slots=True, eq=False)
class Transaction:
    """A signed value transfer in either the account or the UTXO model.

    signing_bytes covers everything except the signature; tx_id hashes the
    full record including the signature, so the id commits to the authoriser.
    Both byte strings and the id are computed once at construction.
    """

    sender: NodeId
    body: TxBody
    signature: bytes
    signing_bytes: bytes = field(init=False, repr=False)
    canonical_bytes: bytes = field(init=False, repr=False)
    tx_id: int = field(init=False, repr=False)
    # the core bytes when the caller already encoded them to sign them
    _core: InitVar["bytes | None"] = None

    def __post_init__(self, _core: "bytes | None") -> None:
        core = _tx_core_bytes(self.sender, self.body) if _core is None else _core
        full = core + enc_bytes(self.signature)
        object.__setattr__(self, "signing_bytes", core)
        object.__setattr__(self, "canonical_bytes", full)
        object.__setattr__(self, "tx_id", hash256(full))

    def is_coinbase(self) -> bool:
        return self.sender.public_key == SYSTEM_KEY

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transaction) and self.tx_id == other.tx_id

    def __hash__(self) -> int:
        return self.tx_id & 0xFFFFFFFFFFFFFFFF


def tx_inputs_bytes(tx: Transaction) -> bytes:
    """Canonical bytes of what the transaction consumes.

    Account model: the (sender, nonce) pair is the consumed resource.
    """
    if isinstance(tx.body, AccountBody):
        return tx.sender.public_key + enc_u64(tx.body.nonce)
    return b"".join(op.encode() for op in tx.body.inputs)


def tx_outputs_bytes(tx: Transaction) -> bytes:
    if isinstance(tx.body, AccountBody):
        return tx.body.recipient.public_key + enc_u64(tx.body.amount)
    return b"".join(out.encode() for out in tx.body.outputs)


def _decode_tx(reader: _Reader) -> Transaction:
    if reader.u8() != FORMAT_TAG:
        raise SerializationError("unknown format tag")
    if reader.u8() != REC_TX:
        raise SerializationError("not a transaction record")
    model_byte = reader.u8()
    sender = NodeId(reader.take(KEY_LEN))
    body: TxBody
    if model_byte == TxModel.ACCOUNT.value:
        recipient = NodeId(reader.take(KEY_LEN))
        amount = reader.u64()
        nonce = reader.u64()
        body = AccountBody(recipient, amount, nonce)
    elif model_byte == TxModel.UTXO.value:
        n_in = reader.u32()
        inputs = tuple(Outpoint(reader.u256(), reader.u32()) for _ in range(n_in))
        n_out = reader.u32()
        outputs = tuple(
            TxOutput(NodeId(reader.take(KEY_LEN)), reader.u64()) for _ in range(n_out)
        )
        body = UtxoBody(inputs, outputs)
    else:
        raise SerializationError(f"unknown tx model byte: {model_byte}")
    signature = reader.var_bytes()
    return Transaction(sender, body, signature)


def deserialize_transaction(data: bytes) -> Transaction:
    reader = _Reader(data)
    tx = _decode_tx(reader)
    if not reader.done():
        raise SerializationError("trailing bytes after transaction")
    return tx


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def block_core_bytes(
    parent_hash: int,
    height: int,
    proposer: NodeId,
    transactions: Sequence[Transaction],
) -> bytes:
    """Header plus transaction list, the part that block_hash commits to.

    Witness signatures are a detachable certificate and never enter this
    digest, so a proposal keeps its identity while signatures accumulate.
    """
    parts = [
        bytes((FORMAT_TAG, REC_BLOCK)),
        enc_u256(parent_hash),
        enc_u64(height),
        proposer.public_key,
        enc_u32(len(transactions)),
    ]
    for tx in transactions:
        record = tx.canonical_bytes
        parts += (len(record).to_bytes(4, "big"), record)  # enc_bytes, inlined
    return b"".join(parts)


@dataclass(frozen=True, slots=True, eq=False)
class Block:
    """One block: header, ordered transactions, witness certificate.

    block_hash covers header + transactions only. Score is computed lazily by
    the scoring module and cached here (same value for every observer).
    """

    parent_hash: int
    height: int
    proposer: NodeId
    transactions: tuple[Transaction, ...]
    witness_sigs: tuple[tuple[NodeId, bytes], ...] = ()
    core_bytes: bytes = field(init=False, repr=False)
    block_hash: int = field(init=False, repr=False)
    score_cache: "int | None" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("height must be non-negative")
        if not 0 <= self.parent_hash <= MAX_HASH:
            raise ValueError("parent hash out of range")
        object.__setattr__(self, "transactions", tuple(self.transactions))
        object.__setattr__(self, "witness_sigs", tuple(self.witness_sigs))
        core = block_core_bytes(
            self.parent_hash, self.height, self.proposer, self.transactions
        )
        object.__setattr__(self, "core_bytes", core)
        object.__setattr__(self, "block_hash", hash256(core))
        object.__setattr__(self, "score_cache", None)

    def user_transactions(self) -> tuple[Transaction, ...]:
        return tuple(tx for tx in self.transactions if not tx.is_coinbase())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Block)
            and self.block_hash == other.block_hash
            and self.witness_sigs == other.witness_sigs
        )

    def __hash__(self) -> int:
        return self.block_hash & 0xFFFFFFFFFFFFFFFF


def certify(candidate: Block, witness_sigs: Sequence[tuple[NodeId, bytes]]) -> Block:
    """The candidate plus a certificate, reusing its core bytes, hash and score."""
    block = object.__new__(Block)
    for name in Block.__slots__:
        object.__setattr__(block, name, getattr(candidate, name))
    object.__setattr__(block, "witness_sigs", tuple(witness_sigs))
    return block


# tag, record type, parent hash, height and proposer: the bytes before the count
_BLOCK_HEADER_LEN = 2 + 32 + 8 + KEY_LEN


def candidate_of(block: Block, cut: int) -> Block:
    """The candidate a minted block was certified from: its first cut
    transactions and no certificate.

    Its core bytes are the block's header, the new count and the block's
    first cut transaction records, sliced out and hashed once; nothing is
    encoded again.
    """
    txs = block.transactions[:cut]
    start = _BLOCK_HEADER_LEN + 4
    end = start + sum(4 + len(tx.canonical_bytes) for tx in txs)
    core = block.core_bytes
    core = core[:_BLOCK_HEADER_LEN] + enc_u32(cut) + core[start:end]
    candidate = object.__new__(Block)
    for name, value in (
        ("parent_hash", block.parent_hash),
        ("height", block.height),
        ("proposer", block.proposer),
        ("transactions", txs),
        ("witness_sigs", ()),
        ("core_bytes", core),
        ("block_hash", hash256(core)),
        ("score_cache", None),
    ):
        object.__setattr__(candidate, name, value)
    return candidate


def serialize_block(block: Block) -> bytes:
    parts = [block.core_bytes, enc_u32(len(block.witness_sigs))]
    for node, sig in block.witness_sigs:
        parts.append(node.public_key)
        parts.append(enc_bytes(sig))
    return b"".join(parts)


def deserialize_block(data: bytes) -> Block:
    reader = _Reader(data)
    if reader.u8() != FORMAT_TAG:
        raise SerializationError("unknown format tag")
    if reader.u8() != REC_BLOCK:
        raise SerializationError("not a block record")
    parent_hash = reader.u256()
    height = reader.u64()
    proposer = NodeId(reader.take(KEY_LEN))
    n_txs = reader.u32()
    txs = []
    for _ in range(n_txs):
        tx_bytes = reader.var_bytes()
        txs.append(deserialize_transaction(tx_bytes))
    n_sigs = reader.u32()
    sigs = []
    for _ in range(n_sigs):
        node = NodeId(reader.take(KEY_LEN))
        sigs.append((node, reader.var_bytes()))
    if not reader.done():
        raise SerializationError("trailing bytes after block")
    return Block(parent_hash, height, proposer, tuple(txs), tuple(sigs))


# ---------------------------------------------------------------------------
# chain parameters and genesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChainConfig:
    """Protocol parameters shared by every node on one chain.

    tx_count_min: minimum user (non-coinbase) transactions per block.
    witness_m: witness signatures required to mint.
    confirm_depth: blocks that must follow before a block counts as confirmed.
    witness_threshold: strict upper bound on proposer/witness key distance.
    """

    tx_count_min: int = 4
    witness_m: int = 2
    confirm_depth: int = 3
    witness_threshold: int = MAX_HASH

    def __post_init__(self) -> None:
        if self.tx_count_min < 1:
            raise ValueError("tx_count_min must be positive")
        if self.witness_m < 1:
            raise ValueError("witness_m must be positive")
        if self.confirm_depth < 1:
            raise ValueError("confirm_depth must be positive")
        if not 0 < self.witness_threshold <= MAX_HASH:
            raise ValueError("witness_threshold out of range")

    def encode(self) -> bytes:
        return (
            enc_u8(FORMAT_TAG)
            + enc_u8(REC_CONFIG)
            + enc_u64(self.tx_count_min)
            + enc_u64(self.witness_m)
            + enc_u64(self.confirm_depth)
            + enc_u256(self.witness_threshold)
        )


def genesis_block(cfg: ChainConfig) -> Block:
    """The unique empty block at height 0 for a given parameter set.

    Its proposer key is the hash of the parameter record, so chains with
    different parameters have different genesis hashes with no special cases
    in the hashing itself. Exempt from tx-count and witness requirements.
    """
    proposer = NodeId(hashlib.sha256(b"genesis-proposer" + cfg.encode()).digest())
    return Block(parent_hash=ZERO_HASH, height=0, proposer=proposer, transactions=())


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


class SignatureScheme(ABC):
    """Pluggable signature primitive; an answer depends on the arguments only.

    Ed25519Scheme keeps the key objects it loads in a bounded memo of the
    pure bytes-to-key function, so it answers as the plain primitive does.
    The one scheme that keeps per-run state is the simulator's memo wrapper
    (simnet._VerifiedMemo): a simulated network is one trust domain whose
    nodes all check the same signed bytes, so it remembers which triples
    verified. get_scheme returns the shared plain instances.
    """

    name: str

    @abstractmethod
    def keypair(self, seed: bytes) -> tuple[bytes, NodeId]:
        """Derive a (secret, identity) pair deterministically from seed."""

    @abstractmethod
    def sign(self, secret: bytes, message: bytes) -> bytes:
        """Deterministic: the same (secret, message) always gives the same
        bytes (Ed25519 per RFC 8032; the stub is a hash). Endorsements rely
        on this to sign only when first read (witness.endorse)."""

    @abstractmethod
    def verify(self, public: NodeId, message: bytes, signature: bytes) -> bool:
        """Total: malformed signatures return False, never raise."""


class HashStubScheme(SignatureScheme):
    """Deterministic keyed-hash stand-in for simulation speed.

    public key = secret key; signature = H(tag || secret || message). Offers
    no unforgeability against parties who know the key, which is irrelevant
    here: the simulated safety properties depend on message delivery, not on
    cryptographic hardness. Never use outside simulation.
    """

    name = "stub"

    def keypair(self, seed: bytes) -> tuple[bytes, NodeId]:
        secret = hashlib.sha256(b"stub-key" + seed).digest()
        return secret, NodeId(secret)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return hashlib.sha256(b"stub-sig" + secret + message).digest()

    def verify(self, public: NodeId, message: bytes, signature: bytes) -> bool:
        expected = hashlib.sha256(b"stub-sig" + public.public_key + message).digest()
        return signature == expected


ED25519_KEY_CACHE = 256  # key objects of each kind kept loaded


@functools.lru_cache(maxsize=ED25519_KEY_CACHE)
def _ed25519_private(secret: bytes):
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    return Ed25519PrivateKey.from_private_bytes(secret)


@functools.lru_cache(maxsize=ED25519_KEY_CACHE)
def _ed25519_public(public: bytes):
    """Raises ValueError on a malformed key; a raise is never cached."""
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    return Ed25519PublicKey.from_public_bytes(public)


class Ed25519Scheme(SignatureScheme):
    """Real asymmetric signatures for library users."""

    name = "ed25519"

    def keypair(self, seed: bytes) -> tuple[bytes, NodeId]:
        secret = hashlib.sha256(b"ed25519-key" + seed).digest()
        public = _ed25519_private(secret).public_key().public_bytes_raw()
        return secret, NodeId(public)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return _ed25519_private(secret).sign(message)

    def verify(self, public: NodeId, message: bytes, signature: bytes) -> bool:
        from cryptography.exceptions import InvalidSignature

        try:
            _ed25519_public(public.public_key).verify(signature, message)
            return True
        except (InvalidSignature, ValueError, TypeError):
            return False


_SCHEMES: dict[str, SignatureScheme] = {
    "stub": HashStubScheme(),
    "ed25519": Ed25519Scheme(),
}


def get_scheme(name: str) -> SignatureScheme:
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown signature scheme: {name!r}") from None


def make_transaction(
    scheme: SignatureScheme, secret: bytes, sender: NodeId, body: TxBody
) -> Transaction:
    """Build and sign a transaction in one step, encoding its core bytes once."""
    core = _tx_core_bytes(sender, body)
    return Transaction(sender, body, scheme.sign(secret, core), core)


def coinbase_transaction(body: TxBody) -> Transaction:
    """System-issued transaction: zero sender key, empty signature."""
    return Transaction(SYSTEM_ID, body, b"")
