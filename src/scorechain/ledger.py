"""Per-node chain state: validation, double-spend checks, and the fork rule.

A node stores every valid block it hears about as a tree and follows exactly
one path through it, chosen by a deterministic rule applied at each branch
point: if the longest branch below the point has reached the confirmation
depth, the longest branch wins regardless of scores (equal lengths fall back
to the score rule on the branches' first blocks); below the confirmation
depth, the branch whose first block has the lower score wins. Because the
rule looks only at the block tree, any two nodes holding the same blocks
follow the same path, whatever order the blocks arrived in. An insert
re-decides the path from its lowest ancestor on it; a walk deciding every
fork point from genesis is kept only as the replay check's oracle.

Every stored block keeps a snapshot of the live state (balances, nonces and
unspent outputs; no spent-output history) after it, so switching branches is
a pointer move, not an unwind. A snapshot has three levels: a frozen base
and a frozen shared level of later writes, both shared with its relatives,
and its own writes, the only part a clone copies. So a block costs about its
own writes, not the account count: a clone folds its own level into a fresh
shared level once own**2 > 64 * (shared + 1), and right after, that level
into a fresh base once shared**2 > 64 * (base + 1) (see TxIndices).
validate_tx checks a transaction and applies it in the same pass.

A replay oracle can recompute the head snapshot from genesis after every
switch to guard the incremental bookkeeping; it costs the replay plus a
comparison of the two sides' own and shared levels, merged at O(shared)
cost, when both still share a base, and never copies the account set (see
TxIndices). A mismatch names the first field and key that differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, filterfalse, repeat, zip_longest
from operator import attrgetter, is_not
from types import MappingProxyType
from typing import Mapping, Sequence

from .core_types import (
    AccountBody,
    Block,
    ChainConfig,
    FORMAT_TAG,
    NodeId,
    Outpoint,
    SerializationError,
    SignatureScheme,
    SYSTEM_KEY,
    Transaction,
    TxOutput,
    UtxoBody,
    _Reader,
    candidate_of,
    deserialize_block,
    enc_bytes,
    enc_u8,
    enc_u32,
    enc_u64,
    enc_u256,
    genesis_block,
    hash256,
    serialize_block,
)
from .incentive import CoinbaseRule
from .scoring import block_score, sort_key
from .witness import is_eligible_witness

REC_CHAIN_FILE = 0x10
# blocks a node buffers while their parents are unknown; the oldest goes first
MAX_ORPHANS = 256
# a node checkpoints its stored blocks' snapshots at multiples of this height
CHECKPOINT_SPACING = 256


class LedgerInvariantError(AssertionError):
    """Incremental indices diverged from a from-genesis replay."""


# ---------------------------------------------------------------------------
# transaction indices
# ---------------------------------------------------------------------------


class TxReject(Enum):
    BAD_SIGNATURE = "bad_signature"
    NONCE_REUSE = "nonce_reuse"
    NONCE_FUTURE = "nonce_future"
    INSUFFICIENT_FUNDS = "insufficient_funds"
    DOUBLE_SPEND = "double_spend"
    UNKNOWN_INPUT = "unknown_input"
    WRONG_OWNER = "wrong_owner"
    EMPTY_INPUTS = "empty_inputs"
    EMPTY_OUTPUTS = "empty_outputs"
    OUTPUT_EXCEEDS_INPUT = "output_exceeds_input"
    BAD_COINBASE = "bad_coinbase"


# Head-state verdicts after which a mempool transaction can never become
# valid again (absent a deep reorg): its nonce is used, or an input is spent
# or never existed (the live state cannot tell the two apart), or it repeats
# an input. The rest never depend on the state at all: a system transaction,
# a signature over fixed bytes, an empty side, and an existing outpoint's
# owner and amount (an outpoint is named by the tx_id that created it).
DEAD_TX = frozenset(
    {
        TxReject.BAD_COINBASE,
        TxReject.NONCE_REUSE,
        TxReject.DOUBLE_SPEND,
        TxReject.UNKNOWN_INPUT,
        TxReject.BAD_SIGNATURE,
        TxReject.WRONG_OWNER,
        TxReject.EMPTY_INPUTS,
        TxReject.EMPTY_OUTPUTS,
        TxReject.OUTPUT_EXCEEDS_INPUT,
    }
)


# default of a level lookup, distinct from a spent UTXO's None tombstone
_ABSENT = object()
_AMOUNT = attrgetter("amount")


def _read(own: dict, shared: dict, base: dict, key, default=None):
    """key's value read down a map's levels: own writes, shared level, base."""
    value = own.get(key, _ABSENT)
    if value is _ABSENT and (value := shared.get(key, _ABSENT)) is _ABSENT:
        value = base.get(key, default)
    return value


def _folded(shared: dict, own: dict) -> dict:
    """shared overlaid by own, tombstones kept; shared itself when own is
    empty, so an untouched map keeps sharing its shared level."""
    if not own:
        return shared
    folded = dict(shared)
    folded.update(own)
    return folded


def _merged(base: dict, overlay: dict) -> dict:
    """base overlaid by overlay, where a None value deletes the key; base
    itself when overlay is empty, so an untouched map keeps sharing its base."""
    if not overlay:
        return base
    merged = dict(base)
    for key, value in overlay.items():
        if value is None:
            merged.pop(key, None)
        else:
            merged[key] = value
    return merged


class TxIndices:
    """Live value state after some chain prefix: balances, nonces, UTXO set.

    No spent-output history is kept: a spent output is simply gone, and it
    can never come back, since a tx_id commits to the inputs it consumes. So
    an already-spent input and a never-created one get the same verdict,
    UNKNOWN_INPUT.

    Each of the three maps has three levels, read top down: this snapshot's
    own writes, a shared level of earlier writes, and a base. A spent UTXO
    is a None tombstone in either level above the base. The shared level
    and the base are never written after they are built, so every snapshot
    cloned from them may share them.

    clone() copies only the own level and shares the other two. Two rules,
    each counting the entries of all three maps together, bound what is
    copied. Once own**2 > 64 * (shared + 1), clone() first folds the
    snapshot being cloned, in place: each map's own level is merged,
    tombstones kept, into a fresh shared level, which the clone then shares.
    Right after a fold, once shared**2 > 64 * (base + 1), it collapses the
    snapshot too: each map's shared level is merged into a fresh base,
    tombstones dropped. (Sizing the shared level before building it would
    spare that rare collapse one copy of it, but would cost every fold a
    pass over the own level.) A map with nothing to merge keeps its level
    object. Neither step changes the content, so a snapshot shared through
    a store stays valid, and clones cut from it earlier keep the levels
    they share. The own level stays under about 8 * sqrt(shared) entries
    and the shared level under about 8 * sqrt(base): each block copies its
    own level, and the shared level or the base only as often as the level
    above it fills.

    Accounts are keyed by public key bytes, which hash in C (a NodeId's hash
    is a Python call). The balances, nonces and utxos properties are merged
    read-only copies, keyed by NodeId, for tests and reports.

    Equality (the replay oracle's check) and total_value merge each map's
    own and shared levels into one overlay, at O(shared) cost per
    comparison, and build no merged copy of a base. Two snapshots sharing
    one base object, as a replay and the head do until the head's chain
    first collapses, compare in time proportional to their two overlays:
    every other key reads the same base. Snapshots with different bases cost
    besides at most one C-level sweep of one base (both only when they
    differ), which allocates nothing per account. A mismatch is named by its
    first field and key. total_value sums the bases in C and corrects the
    sum by each overlay entry, spent-output tombstones included.

    issued counts all value ever created (initial allocation plus coinbase);
    burned counts UTXO input value not re-emitted as outputs. Conservation:
    total held value == issued - burned at every block boundary.
    """

    __slots__ = (
        "_balances", "_balances_shared", "_balances_base",
        "_nonces", "_nonces_shared", "_nonces_base",
        "_utxos", "_utxos_shared", "_utxos_base",
        "issued", "burned",
    )

    def __init__(
        self,
        balances: "dict[NodeId, int] | None" = None,
        nonces: "dict[NodeId, int] | None" = None,
        utxos: "dict[Outpoint, TxOutput] | None" = None,
        issued: int = 0,
        burned: int = 0,
    ) -> None:
        """The given maps form the base; utxos must not be written afterwards."""
        self._balances_base = {n.public_key: v for n, v in (balances or {}).items()}
        self._nonces_base = {n.public_key: v for n, v in (nonces or {}).items()}
        self._utxos_base = utxos if utxos is not None else {}
        self._balances_shared: dict[bytes, int] = {}
        self._nonces_shared: dict[bytes, int] = {}
        self._utxos_shared: "dict[Outpoint, TxOutput | None]" = {}
        self._balances: dict[bytes, int] = {}
        self._nonces: dict[bytes, int] = {}
        self._utxos: "dict[Outpoint, TxOutput | None]" = {}
        self.issued = issued
        self.burned = burned

    def clone(self) -> "TxIndices":
        own = len(self._balances) + len(self._nonces) + len(self._utxos)
        shared = len(self._balances_shared) + len(self._nonces_shared) + len(self._utxos_shared)
        if own * own > 64 * (shared + 1):
            self._fold()
            shared = (
                len(self._balances_shared) + len(self._nonces_shared) + len(self._utxos_shared)
            )
            base = len(self._balances_base) + len(self._nonces_base) + len(self._utxos_base)
            if shared * shared > 64 * (base + 1):
                self._collapse()
        twin = TxIndices.__new__(TxIndices)
        twin._balances_base = self._balances_base
        twin._nonces_base = self._nonces_base
        twin._utxos_base = self._utxos_base
        twin._balances_shared = self._balances_shared
        twin._nonces_shared = self._nonces_shared
        twin._utxos_shared = self._utxos_shared
        twin._balances = dict(self._balances)
        twin._nonces = dict(self._nonces)
        twin._utxos = dict(self._utxos)
        twin.issued = self.issued
        twin.burned = self.burned
        return twin

    def _fold(self) -> None:
        """Merge each own level into a fresh shared level, in place; content
        is unchanged, and a map with no own writes keeps its shared level."""
        self._balances_shared = _folded(self._balances_shared, self._balances)
        self._nonces_shared = _folded(self._nonces_shared, self._nonces)
        self._utxos_shared = _folded(self._utxos_shared, self._utxos)
        self._balances, self._nonces, self._utxos = {}, {}, {}

    def _collapse(self) -> None:
        """Fold, then merge each shared level into a fresh base, in place.

        The content is unchanged, and a map whose shared level is empty keeps
        its base object (bases are never written), so snapshots keep sharing
        the bases nobody wrote to.
        """
        self._fold()
        self._balances_base = _merged(self._balances_base, self._balances_shared)
        self._nonces_base = _merged(self._nonces_base, self._nonces_shared)
        self._utxos_base = _merged(self._utxos_base, self._utxos_shared)
        self._balances_shared, self._nonces_shared, self._utxos_shared = {}, {}, {}

    # -- reads -------------------------------------------------------------------

    def nonce(self, public_key: bytes) -> int:
        """The nonce the account with this key must use next."""
        return _read(self._nonces, self._nonces_shared, self._nonces_base, public_key, 0)

    @property
    def balances(self) -> Mapping[NodeId, int]:
        merged = _merged(*_split(self, "balances"))
        return MappingProxyType({NodeId(key): value for key, value in merged.items()})

    @property
    def nonces(self) -> Mapping[NodeId, int]:
        merged = _merged(*_split(self, "nonces"))
        return MappingProxyType({NodeId(key): value for key, value in merged.items()})

    @property
    def utxos(self) -> Mapping[Outpoint, TxOutput]:
        return MappingProxyType(_merged(*_split(self, "utxos")))

    def __eq__(self, other: object) -> bool:
        """Equal content, however each side splits it between its levels."""
        if not isinstance(other, TxIndices):
            return NotImplemented
        return _first_difference(self, other) is None

    # -- validation and application -------------------------------------------

    def validate_tx(self, tx: Transaction, scheme: SignatureScheme) -> "TxReject | None":
        """Check a user transaction here and apply it if it passes.

        Returns None when it applied, else the reason it is refused; a
        refused transaction changes nothing. One pass reads each key through
        the levels once. A system (coinbase) transaction is always
        BAD_COINBASE here: a block's coinbase is checked only by equality
        with the chain's coinbase rule, and apply_tx applies it.
        """
        if tx.is_coinbase():
            return TxReject.BAD_COINBASE
        body = tx.body
        if isinstance(body, AccountBody):
            # the reads of _read, inlined on this hot path (an account value
            # is never None)
            nonces, balances = self._nonces, self._balances
            sender = tx.sender.public_key
            expected = nonces.get(sender)
            if expected is None and (expected := self._nonces_shared.get(sender)) is None:
                expected = self._nonces_base.get(sender, 0)
            if body.nonce != expected:
                return TxReject.NONCE_REUSE if body.nonce < expected else TxReject.NONCE_FUTURE
            held = balances.get(sender)
            if held is None and (held := self._balances_shared.get(sender)) is None:
                held = self._balances_base.get(sender, 0)
            if held < body.amount:
                return TxReject.INSUFFICIENT_FUNDS
            if not scheme.verify(tx.sender, tx.signing_bytes, tx.signature):
                return TxReject.BAD_SIGNATURE
            nonces[sender] = expected + 1
            balances[sender] = held - body.amount
            # read after the sender's write, which a payment to oneself sees
            recipient = body.recipient.public_key
            held = balances.get(recipient)
            if held is None and (held := self._balances_shared.get(recipient)) is None:
                held = self._balances_base.get(recipient, 0)
            balances[recipient] = held + body.amount
            return None
        burned = self._validate_utxo_spend(tx.sender, body)
        if isinstance(burned, TxReject):
            return burned
        if not scheme.verify(tx.sender, tx.signing_bytes, tx.signature):
            return TxReject.BAD_SIGNATURE
        utxos = self._utxos
        for op in body.inputs:
            utxos[op] = None
        for index, out in enumerate(body.outputs):
            utxos[Outpoint(tx.tx_id, index)] = out
        self.burned += burned
        return None

    def _validate_utxo_spend(self, sender: NodeId, body: UtxoBody) -> "TxReject | int":
        """The reason a spend is refused here, else the value it burns."""
        if not body.inputs:
            return TxReject.EMPTY_INPUTS
        if not body.outputs:
            return TxReject.EMPTY_OUTPUTS
        if len(set(body.inputs)) != len(body.inputs):
            return TxReject.DOUBLE_SPEND
        utxos, shared, base = self._utxos, self._utxos_shared, self._utxos_base
        in_sum = 0
        for op in body.inputs:
            # _read, inlined on this hot path
            held = utxos.get(op, _ABSENT)
            if held is _ABSENT and (held := shared.get(op, _ABSENT)) is _ABSENT:
                held = base.get(op)
            if held is None:
                return TxReject.UNKNOWN_INPUT
            if held.owner != sender:
                return TxReject.WRONG_OWNER
            in_sum += held.amount
        out_sum = sum(out.amount for out in body.outputs)
        if out_sum > in_sum:
            return TxReject.OUTPUT_EXCEEDS_INPUT
        return in_sum - out_sum

    def apply_tx(self, tx: Transaction) -> None:
        """Apply a transaction unchecked, in place: a coinbase, or one a
        check already passed elsewhere (a replay of stored blocks)."""
        body = tx.body
        coinbase = tx.is_coinbase()
        if isinstance(body, AccountBody):
            balances, shared, base = self._balances, self._balances_shared, self._balances_base
            sender, recipient = tx.sender.public_key, body.recipient.public_key
            self._nonces[sender] = body.nonce + 1
            if coinbase:
                self.issued += body.amount
            else:
                balances[sender] = _read(balances, shared, base, sender, 0) - body.amount
            balances[recipient] = _read(balances, shared, base, recipient, 0) + body.amount
            return
        utxos, shared, base = self._utxos, self._utxos_shared, self._utxos_base
        in_sum = 0
        # a coinbase's one input is its height marker, not an output
        inputs = () if coinbase else body.inputs
        for op in inputs:
            in_sum += _read(utxos, shared, base, op).amount
            utxos[op] = None
        out_sum = 0
        for index, out in enumerate(body.outputs):
            utxos[Outpoint(tx.tx_id, index)] = out
            out_sum += out.amount
        if coinbase:
            self.issued += out_sum
        else:
            self.burned += in_sum - out_sum


def _split(indices: TxIndices, name: str) -> "tuple[dict, dict]":
    """A map of a snapshot as its base and one overlay: its own level folded
    over its shared level, tombstones kept."""
    own, shared, base = (getattr(indices, f"_{name}{level}") for level in ("", "_shared", "_base"))
    return base, _folded(shared, own)


def _map_difference(base: dict, overlay: dict, other_base: dict, other_overlay: dict):
    """The first key two overlaid maps read differently, or _ABSENT if none.

    Each side reads every key written on either side into a patch, with None
    for an absent key (no base holds None), and the two patches are built
    and compared in C. Every other key, unwritten, reads each side's base,
    so with one shared base nothing more is compared. Different bases agree
    on their unwritten keys when they hold as many of them and every one of
    base's is held alike by other_base: one C-level sweep of base checks
    that, comparing by value only the entries not held identically. Only
    when the counts differ is other_base swept as well, to name its extra key.
    """
    patch = dict(zip(other_overlay, map(base.get, other_overlay)))
    patch.update(overlay)
    other_patch = dict(zip(overlay, map(other_base.get, overlay)))
    other_patch.update(other_overlay)
    if patch != other_patch:  # the same keys, so some value differs
        return next(key for key, value in patch.items() if other_patch[key] != value)
    if base is other_base:
        return _ABSENT
    unwritten = len(base) - sum(map(base.__contains__, patch))
    sweeps = [(base, other_base)] if unwritten else []
    if len(other_base) - sum(map(other_base.__contains__, patch)) != unwritten:
        sweeps.append((other_base, base))
    for mine, theirs in sweeps:
        held = map(theirs.get, mine, repeat(_ABSENT))
        suspects = compress(mine, map(is_not, held, mine.values()))
        for key in filterfalse(patch.__contains__, suspects):
            if theirs.get(key, _ABSENT) != mine[key]:
                return key
    return _ABSENT


class HeightCache(dict):
    """A dict whose entries are filed by height, so those below a horizon
    can be dropped together.

    Entries are written only through put, which files each one once, at a
    height, so every entry is filed. drop_below(horizon) removes every entry
    filed below the horizon. What must outlive a drop, such as a node's
    checkpoint snapshots, is held outside the cache.
    """

    __slots__ = ("_filed",)

    def __init__(self) -> None:
        super().__init__()
        # key -> its height: a put allocates no container for the collector
        self._filed: dict = {}

    def put(self, height: int, key, value) -> None:
        """Store value under key, filed at height, unless key is held already."""
        self.setdefault(key, value)
        self._filed.setdefault(key, height)

    def drop_below(self, horizon: int) -> None:
        filed = self._filed
        for key in [key for key, height in filed.items() if height < horizon]:
            del self[key], filed[key]


def _first_difference(a: TxIndices, b: TxIndices) -> "tuple[str, object] | None":
    """Where two snapshots' contents first differ: (field, key), or None.

    The fields are checked in the order issued, burned, balances, nonces,
    utxos; the key is None for the two totals, and a public key's bytes or
    an Outpoint for the maps. A zero balance and an absent account differ.
    """
    for name in ("issued", "burned"):
        if getattr(a, name) != getattr(b, name):
            return name, None
    for name in ("balances", "nonces", "utxos"):
        key = _map_difference(*_split(a, name), *_split(b, name))
        if key is not _ABSENT:
            return name, key
    return None


def total_value(indices: TxIndices) -> int:
    """All value currently held in accounts and unspent outputs.

    The bases are summed in C, then corrected by each entry of the own and
    shared levels merged, so no merged copy of a base is built.
    """
    balances, balance_overlay = _split(indices, "balances")
    utxos, utxo_overlay = _split(indices, "utxos")
    total = sum(balances.values()) + sum(map(_AMOUNT, utxos.values()))
    for key, value in balance_overlay.items():
        total += value - balances.get(key, 0)
    for op, out in utxo_overlay.items():
        prior = utxos.get(op)
        total += (0 if out is None else out.amount) - (0 if prior is None else prior.amount)
    return total


def fund_accounts(alloc: Mapping[NodeId, int]) -> TxIndices:
    """Initial account balances, counted as pre-issued value."""
    balances = {node.public_key: units for node, units in alloc.items() if units > 0}
    indices = TxIndices(issued=sum(balances.values()))
    indices._balances_base = balances  # keyed by key bytes, as the base is
    return indices


def fund_utxos(alloc: Mapping[NodeId, Sequence[int]]) -> TxIndices:
    """Initial unspent outputs; outpoint ids derive from owner and slot.

    Outputs are immutable, so an owner's grants of one amount share one.
    """
    utxos: dict[Outpoint, TxOutput] = {}
    issued = 0
    for node, amounts in alloc.items():
        outputs = {amount: TxOutput(node, amount) for amount in set(amounts) if amount > 0}
        for slot, amount in enumerate(amounts):
            if amount <= 0:
                continue
            grant_id = hash256(b"initial-grant" + node.public_key + enc_u64(slot))
            utxos[Outpoint(grant_id, 0)] = outputs[amount]
            issued += amount
    return TxIndices(utxos=utxos, issued=issued)


# ---------------------------------------------------------------------------
# apply results and fork-win messages
# ---------------------------------------------------------------------------


class BlockReject(Enum):
    BAD_STRUCTURE = "bad_structure"
    TOO_FEW_TXS = "too_few_txs"
    BAD_WITNESS = "bad_witness"
    INVALID_TX = "invalid_tx"
    BAD_COINBASE = "bad_coinbase"
    DUPLICATE = "duplicate"


class ApplyStatus(Enum):
    ACCEPTED = "accepted"  # on the followed chain, no branch change
    SWITCHED = "switched"  # accepted and the followed branch changed
    SIDE_BRANCH = "side_branch"  # stored off the followed chain
    ORPHANED = "orphaned"  # parent unknown, buffered
    REJECTED = "rejected"


@dataclass(frozen=True, slots=True)
class ApplyResult:
    status: ApplyStatus
    reason: "BlockReject | None" = None
    stored: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        stored = self.status in (
            ApplyStatus.ACCEPTED,
            ApplyStatus.SWITCHED,
            ApplyStatus.SIDE_BRANCH,
        )
        object.__setattr__(self, "stored", stored)


# the outcomes that carry nothing of the block, shared by every apply ending in one
_DUPLICATE = ApplyResult(ApplyStatus.REJECTED, BlockReject.DUPLICATE)
_ORPHANED = ApplyResult(ApplyStatus.ORPHANED)
_BY_STATUS = {status: ApplyResult(status) for status in ApplyStatus}


@dataclass
class ChainStats:
    switches: int = 0
    orphans_expired: int = 0  # orphans evicted to keep the pool at MAX_ORPHANS


# ---------------------------------------------------------------------------
# chain state
# ---------------------------------------------------------------------------


class ChainState:
    """Single-writer block tree plus the followed-chain selection.

    A block whose parent is unknown waits in an orphan pool until the parent
    is stored, however long that takes. The pool is bounded by count alone:
    a new orphan arriving at MAX_ORPHANS evicts the oldest.

    The snapshot store and the verdict cache are HeightCaches; a ChainState
    given none makes its own. They may be shared by several ChainStates in
    one simulated network (same genesis allocation and parameters): verdicts
    and post-block snapshots depend only on a block's ancestry, never on the
    observing node, and a node only consults entries for blocks it holds.
    witness.propose_block stores its candidate's post-state there too, under
    the candidate's block_hash, so a witness's candidate_block_valid and the
    minted block (its candidate plus any coinbase) skip the transactions the
    proposer already ran.

    Every entry is written through put, filed at its block's height, and the
    stores' owner may drop those below a horizon (simnet.Simulator does). A
    drop costs work, never an answer: a missing verdict is computed again,
    and a missing snapshot is rebuilt by replaying this node's blocks from
    the nearest ancestor the store or this node's checkpoints hold. The
    checkpoints, which no drop reaches, hold the genesis state and each
    stored block's snapshot at a multiple of CHECKPOINT_SPACING.
    """

    def __init__(
        self,
        cfg: ChainConfig,
        scheme: SignatureScheme,
        genesis_indices: "TxIndices | None" = None,
        *,
        coinbase_rule: "CoinbaseRule | None" = None,
        replay_check: bool = False,
        snapshot_store: "HeightCache | None" = None,
        verdict_cache: "HeightCache | None" = None,
    ) -> None:
        self.cfg = cfg
        self.scheme = scheme
        self.genesis = genesis_block(cfg)
        self.coinbase_rule = coinbase_rule
        self.replay_check = replay_check
        self.stats = ChainStats()

        g = self.genesis.block_hash
        base = genesis_indices.clone() if genesis_indices is not None else TxIndices()
        self.blocks: dict[int, Block] = {g: self.genesis}
        self.children: dict[int, list[int]] = {}
        self.blocks_at_height: dict[int, list[int]] = {0: [g]}
        self.main_by_height: list[int] = [g]  # the followed chain, by height
        self.head: Block = self.genesis
        self.snapshots = snapshot_store if snapshot_store is not None else HeightCache()
        self.verdicts = verdict_cache if verdict_cache is not None else HeightCache()
        self._checkpoints: dict[int, TxIndices] = {g: base}
        self.fork_events: list[int] = []  # the head after each branch switch

        # block hash -> block, in buffer order
        self._orphans: dict[int, Block] = {}

    # -- views ---------------------------------------------------------------

    @property
    def height(self) -> int:
        return self.head.height

    def head_indices(self) -> TxIndices:
        return self._snapshot(self.head.block_hash)

    def system_nonce_at(self, block_hash: int) -> int:
        return self._snapshot(block_hash).nonce(SYSTEM_KEY)

    def has_block(self, block_hash: int) -> bool:
        return block_hash in self.blocks

    def best_score_at(self, height: int) -> "int | None":
        """Lowest known block score at a height, over every stored branch."""
        hashes = self.blocks_at_height.get(height)
        if not hashes:
            return None
        return min(block_score(self.blocks[h]) for h in hashes)

    def main_chain(self) -> list[Block]:
        return [self.blocks[h] for h in self.main_by_height]

    def confirmed_prefix(self) -> list[int]:
        """Hashes of followed-chain blocks buried at least confirm_depth deep."""
        return self.main_by_height[: max(1, len(self.main_by_height) - self.cfg.confirm_depth)]

    # -- block admission ------------------------------------------------------

    def apply_block(self, block: Block) -> ApplyResult:
        h = block.block_hash
        if h in self.blocks or h in self._orphans:
            return _DUPLICATE
        if block.height == 0:
            return ApplyResult(ApplyStatus.REJECTED, BlockReject.BAD_STRUCTURE)
        parent = self.blocks.get(block.parent_hash)
        if parent is None:
            if len(self._orphans) >= MAX_ORPHANS:
                del self._orphans[next(iter(self._orphans))]
                self.stats.orphans_expired += 1
            self._orphans[h] = block
            return _ORPHANED
        reason = self._full_validate(block, parent)
        if reason is not None:
            return ApplyResult(ApplyStatus.REJECTED, reason)
        self._insert(block)
        status = self._reselect(block)
        self._drain_orphans(h)
        return _BY_STATUS[status]

    # -- snapshots -------------------------------------------------------------

    def _held(self, block_hash: int) -> "TxIndices | None":
        """A block's snapshot from the store, else this node's checkpoints."""
        indices = self.snapshots.get(block_hash)
        return self._checkpoints.get(block_hash) if indices is None else indices

    def _snapshot(self, block_hash: int) -> TxIndices:
        """The state after a stored block, held or else rebuilt."""
        indices = self._held(block_hash)
        return self._rebuild_snapshot(block_hash) if indices is None else indices

    def _rebuild_snapshot(self, block_hash: int) -> TxIndices:
        """Replay this node's blocks from the nearest held ancestor; store it."""
        path: list[Block] = []
        while (indices := self._held(block_hash)) is None:
            block = self.blocks[block_hash]
            path.append(block)
            block_hash = block.parent_hash
        indices = indices.clone()
        for block in reversed(path):
            for tx in block.transactions:
                indices.apply_tx(tx)
        self.snapshots.put(path[0].height, path[0].block_hash, indices)
        return indices

    def _insert(self, block: Block) -> None:
        h = block.block_hash
        self.blocks[h] = block
        self.children.setdefault(block.parent_hash, []).append(h)
        self.blocks_at_height.setdefault(block.height, []).append(h)
        if block.height % CHECKPOINT_SPACING == 0:
            self._checkpoints[h] = self._snapshot(h)

    # -- validation ------------------------------------------------------------

    def _full_validate(self, block: Block, parent: Block) -> "BlockReject | None":
        key = (block.block_hash, block.witness_sigs)
        if key in self.verdicts:
            return self.verdicts[key]
        reason = self._validate_uncached(block, parent)
        self.verdicts.put(block.height, key, reason)
        return reason

    def _validate_uncached(self, block: Block, parent: Block) -> "BlockReject | None":
        """A minted block is its candidate, a certificate and a coinbase.

        The candidate is the block's user transactions up to the first system
        transaction; the rest, the tail, must be exactly the coinbase rule's
        output, so a system transaction anywhere else is BAD_COINBASE. The
        candidate takes the path candidate_block_valid takes, under its own
        hash, which reuses the post-state stored while it was proposed or
        witnessed; the block's own snapshot is that one plus the coinbase.
        """
        txs = block.transactions
        cut = next((i for i, tx in enumerate(txs) if tx.is_coinbase()), len(txs))
        candidate = block
        if cut < len(txs):
            if not all(tx.is_coinbase() for tx in txs[cut:]):
                return BlockReject.BAD_COINBASE
            candidate = candidate_of(block, cut)
        # a candidate a witness found valid has passed the structure checks
        if self.verdicts.get((candidate.block_hash, None)) is not True:
            reason = self._check_structure(candidate, parent)
            if reason is not None:
                return reason

        sigs = block.witness_sigs
        if len(sigs) < self.cfg.witness_m:
            return BlockReject.BAD_WITNESS
        keys = {node.public_key for node, _ in sigs}  # bytes hash faster than NodeIds
        if len(keys) != len(sigs) or block.proposer.public_key in keys:
            return BlockReject.BAD_WITNESS
        message = enc_u256(candidate.block_hash)
        for node, sig in sigs:
            if not is_eligible_witness(block.proposer, node, self.cfg):
                return BlockReject.BAD_WITNESS
            if not self.scheme.verify(node, message, sig):
                return BlockReject.BAD_WITNESS

        reason = self._apply_txs(candidate, parent)
        if reason is not None:
            return reason
        # the one coinbase check: the tail must be exactly what the chain's
        # rule prescribes; without a rule, no system transaction is legitimate
        expected: tuple[Transaction, ...] = ()
        if self.coinbase_rule is not None:
            system_nonce = self.system_nonce_at(parent.block_hash)
            witnesses = tuple(node for node, _ in sigs)
            expected = self.coinbase_rule(candidate, witnesses, system_nonce)
        if txs[cut:] != expected:
            return BlockReject.BAD_COINBASE
        if candidate is not block and block.block_hash not in self.snapshots:
            indices = self.snapshots[candidate.block_hash].clone()
            for tx in expected:
                indices.apply_tx(tx)
            self.snapshots.put(block.height, block.block_hash, indices)
        return None

    def _check_structure(self, block: Block, parent: Block) -> "BlockReject | None":
        """A candidate's checks before any transaction runs."""
        if block.height != parent.height + 1 or block.proposer.public_key == SYSTEM_KEY:
            return BlockReject.BAD_STRUCTURE
        txs = block.transactions
        if len({tx.tx_id for tx in txs}) != len(txs):
            return BlockReject.BAD_STRUCTURE
        if len(txs) < self.cfg.tx_count_min:
            return BlockReject.TOO_FEW_TXS
        return None

    def _apply_txs(self, block: Block, parent: Block) -> "BlockReject | None":
        """Run a candidate's transactions on its parent's state; store the result.

        The snapshot is keyed by block hash, which covers parent and
        transactions, so one computed while proposing or witnessing a
        candidate serves every later check of it. validate_tx refuses system
        transactions, so a candidate carrying one is INVALID_TX.
        """
        if block.block_hash in self.snapshots:
            return None
        indices = self._snapshot(parent.block_hash).clone()
        for tx in block.transactions:
            if indices.validate_tx(tx, self.scheme) is not None:
                return BlockReject.INVALID_TX
        self.snapshots.put(block.height, block.block_hash, indices)
        return None

    def candidate_block_valid(self, block: Block) -> bool:
        """Pre-certificate validity: structure and transactions only.

        This is what a witness checks before endorsing; the certificate and
        the coinbase belong to minted blocks, not candidates. A candidate
        carrying a system transaction is invalid, since minting appends the
        coinbase after the certificate.
        """
        parent = self.blocks.get(block.parent_hash)
        if parent is None:
            return False
        key = (block.block_hash, None)
        ok = self.verdicts.get(key)
        if ok is None:
            ok = (
                self._check_structure(block, parent) is None
                and self._apply_txs(block, parent) is None
            )
            self.verdicts.put(block.height, key, ok)
        return ok

    # -- orphan pool -------------------------------------------------------------

    def _drain_orphans(self, parent_hash: int) -> None:
        """Apply the orphans waiting on parent_hash, in buffer order."""
        waiting = [b for b in self._orphans.values() if b.parent_hash == parent_hash]
        for block in waiting:
            del self._orphans[block.block_hash]
            self.apply_block(block)

    # -- fork choice -------------------------------------------------------------

    def _subtree_max_height(self, root_hash: int) -> int:
        height, level = self.blocks[root_hash].height, self.children.get(root_hash)
        while level:
            height += 1
            level = [kid for h in level for kid in self.children.get(h, ())]
        return height

    def _choose_child(self, parent_hash: int, kids: list[int]) -> int:
        """Apply the branch rule at one fork point."""
        base_height = self.blocks[parent_hash].height
        lengths = {k: self._subtree_max_height(k) - base_height for k in kids}
        longest = max(lengths.values())
        if longest >= self.cfg.confirm_depth:
            contenders = [k for k in kids if lengths[k] == longest]
        else:
            contenders = kids
        return min(contenders, key=lambda k: sort_key(self.blocks[k]))

    def _follow(self) -> list[int]:
        """Walk from genesis, deciding every fork point: the oracle for _reselect."""
        chain = [self.genesis.block_hash]
        while kids := self.children.get(chain[-1]):
            chain.append(kids[0] if len(kids) == 1 else self._choose_child(chain[-1], kids))
        return chain

    def _reselect(self, inserted: Block) -> ApplyStatus:
        """Re-decide the followed chain from the insert's lowest followed ancestor.

        Below it the followed branch is the one that grew, so it stays chosen.
        A switch is a new chain without the old head, a shorter one included.
        """
        main = self.main_by_height
        fork = self.blocks[inserted.parent_hash]
        while fork.height >= len(main) or main[fork.height] != fork.block_hash:
            fork = self.blocks[fork.parent_hash]
        del main[fork.height + 1 :]
        while kids := self.children.get(main[-1]):
            main.append(kids[0] if len(kids) == 1 else self._choose_child(main[-1], kids))
        old_head, self.head = self.head, self.blocks[main[-1]]
        on_main = inserted.height < len(main) and main[inserted.height] == inserted.block_hash
        if old_head.height < len(main) and main[old_head.height] == old_head.block_hash:
            return ApplyStatus.ACCEPTED if on_main else ApplyStatus.SIDE_BRANCH
        self.stats.switches += 1
        self.fork_events.append(self.head.block_hash)
        if self.replay_check:
            self.assert_replay_matches()
        return ApplyStatus.SWITCHED if on_main else ApplyStatus.SIDE_BRANCH

    def pop_fork_events(self) -> list[int]:
        events, self.fork_events = self.fork_events, []
        return events

    # -- replay oracle -----------------------------------------------------------

    def replay_from_genesis(self) -> TxIndices:
        indices = self._checkpoints[self.genesis.block_hash].clone()
        for block_hash in self.main_by_height[1:]:
            for tx in self.blocks[block_hash].transactions:
                indices.apply_tx(tx)
        return indices

    def assert_replay_matches(self) -> None:
        """Raise LedgerInvariantError naming the first height or state field that differs."""
        chain, walked = self.main_by_height, self._follow()
        if chain != walked:
            height = next(i for i, (a, b) in enumerate(zip_longest(chain, walked)) if a != b)
            raise LedgerInvariantError(
                f"followed chain diverged from the from-genesis walk at height {height}"
            )
        difference = _first_difference(self.head_indices(), self.replay_from_genesis())
        if difference is not None:
            name, key = difference
            if isinstance(key, bytes):  # an account's public key
                name += f"[{key.hex()}]"
            elif key is not None:  # an outpoint
                name += f"[{key.tx_id:x}:{key.index}]"
            raise LedgerInvariantError(
                f"incremental indices diverged from genesis replay at {name}"
            )

    # -- persistence ---------------------------------------------------------------

    def dump_chain(self, path: str) -> None:
        """Write the followed chain, genesis included, as tagged binary."""
        chain = self.main_chain()
        parts = [enc_u8(FORMAT_TAG), enc_u8(REC_CHAIN_FILE), enc_u32(len(chain))]
        parts += [enc_bytes(serialize_block(b)) for b in chain]
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))

    @classmethod
    def load_chain(
        cls,
        cfg: ChainConfig,
        scheme: SignatureScheme,
        path: str,
        genesis_indices: "TxIndices | None" = None,
        **kwargs,
    ) -> "ChainState":
        """Rebuild a state from a `dump_chain` file, applying every block again.

        The file must start at this ledger's genesis. Malformed bytes and
        blocks the ledger rejects raise only SerializationError. `kwargs`
        (such as `coinbase_rule`) go to the constructor.
        """
        with open(path, "rb") as fh:
            reader = _Reader(fh.read())
        if reader.u8() != FORMAT_TAG or reader.u8() != REC_CHAIN_FILE:
            raise SerializationError("not a chain file")
        blocks = [deserialize_block(reader.var_bytes()) for _ in range(reader.u32())]
        if not reader.done():
            raise SerializationError("trailing bytes in chain file")
        state = cls(cfg, scheme, genesis_indices, **kwargs)
        if not blocks or blocks[0].block_hash != state.genesis.block_hash:
            raise SerializationError("chain file has a different genesis")
        for block in blocks[1:]:
            result = state.apply_block(block)
            if not result.stored:
                raise SerializationError(
                    f"chain file block at height {block.height} rejected: "
                    f"{result.reason.value if result.reason else result.status.value}"
                )
        return state


# ---------------------------------------------------------------------------
# conflict sweep used by tests and reports
# ---------------------------------------------------------------------------


def confirmed_conflicts(state: ChainState) -> list[str]:
    """Descriptions of conflicting user transactions in the confirmed prefix.

    Two transactions conflict when they consume the same resource: the same
    (sender, nonce) pair in the account model, or the same outpoint in the
    UTXO model. A correct ledger never lets a conflict through, so a
    non-empty result is a safety violation, not a normal outcome.
    """
    conflicts: list[str] = []
    nonce_seen: dict[tuple[NodeId, int], int] = {}
    outpoint_seen: dict[Outpoint, int] = {}
    for block_hash in state.confirmed_prefix():
        for tx in state.blocks[block_hash].transactions:
            if tx.is_coinbase():
                continue
            if isinstance(tx.body, AccountBody):
                key = (tx.sender, tx.body.nonce)
                prior = nonce_seen.get(key)
                if prior is not None and prior != tx.tx_id:
                    conflicts.append(
                        f"nonce {tx.body.nonce} of {tx.sender.hex()[:12]} spent twice"
                    )
                nonce_seen[key] = tx.tx_id
            else:
                for op in tx.body.inputs:
                    prior = outpoint_seen.get(op)
                    if prior is not None and prior != tx.tx_id:
                        conflicts.append(
                            f"outpoint {op.tx_id:x}:{op.index} spent twice"
                        )
                    outpoint_seen[op] = tx.tx_id
    return conflicts
