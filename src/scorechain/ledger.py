"""Per-node chain state: validation, double-spend checks, and the fork rule.

A node stores every valid block it hears about as a tree and follows exactly
one path through it, chosen by a deterministic rule applied at each branch
point: if the longest branch below the point has reached the confirmation
depth, the longest branch wins regardless of scores (equal lengths fall back
to the score rule on the branches' first blocks); below the confirmation
depth, the branch whose first block has the lower score wins. Because the
rule looks only at the block tree, any two nodes holding the same blocks
follow the same path, whatever order the blocks arrived in.

Transaction indices (balances, nonces, unspent outputs) are kept per block as
immutable snapshots, so switching branches is a pointer move, not an unwind.
A replay oracle can recompute the head snapshot from genesis after every
switch to guard the incremental bookkeeping.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

from .core_types import (
    AccountBody,
    Block,
    ChainConfig,
    COINBASE_INDEX,
    FORMAT_TAG,
    NodeId,
    Outpoint,
    SerializationError,
    SignatureScheme,
    SYSTEM_ID,
    Transaction,
    TxOutput,
    UtxoBody,
    deserialize_block,
    enc_bytes,
    enc_u8,
    enc_u32,
    enc_u64,
    genesis_block,
    hash256,
    serialize_block,
)
from .scoring import block_score, sort_key
from .witness import is_eligible_witness, witness_message

REC_CHAIN_FILE = 0x10


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
# valid again (absent a deep reorg): its nonce or input is already used.
DEAD_TX = frozenset(
    {TxReject.NONCE_REUSE, TxReject.DOUBLE_SPEND, TxReject.UNKNOWN_INPUT}
)


@dataclass(eq=True)
class TxIndices:
    """Value state after some chain prefix: balances, nonces, UTXO set.

    issued counts all value ever created (initial allocation plus coinbase);
    burned counts UTXO input value not re-emitted as outputs. Conservation:
    total held value == issued - burned at every block boundary.
    """

    balances: dict[NodeId, int] = field(default_factory=dict)
    nonces: dict[NodeId, int] = field(default_factory=dict)
    utxos: dict[Outpoint, TxOutput] = field(default_factory=dict)
    spent: set[Outpoint] = field(default_factory=set)
    issued: int = 0
    burned: int = 0

    def clone(self) -> "TxIndices":
        return TxIndices(
            dict(self.balances),
            dict(self.nonces),
            dict(self.utxos),
            set(self.spent),
            self.issued,
            self.burned,
        )

    # -- validation ---------------------------------------------------------

    def validate_tx(
        self,
        tx: Transaction,
        scheme: SignatureScheme,
        expected_height: "int | None" = None,
        in_block: bool = False,
    ) -> "TxReject | None":
        """None if the transaction applies cleanly here, else the reason.

        System (coinbase) transactions are only legal inside blocks;
        expected_height pins the UTXO coinbase height marker when known.
        """
        if tx.is_coinbase():
            if not in_block:
                return TxReject.BAD_COINBASE
            return self._validate_coinbase(tx, expected_height)
        body = tx.body
        if isinstance(body, AccountBody):
            expected = self.nonces.get(tx.sender, 0)
            if body.nonce < expected:
                return TxReject.NONCE_REUSE
            if body.nonce > expected:
                return TxReject.NONCE_FUTURE
            if self.balances.get(tx.sender, 0) < body.amount:
                return TxReject.INSUFFICIENT_FUNDS
        else:
            reason = self._validate_utxo_spend(tx.sender, body)
            if reason is not None:
                return reason
        if not scheme.verify(tx.sender, tx.signing_bytes, tx.signature):
            return TxReject.BAD_SIGNATURE
        return None

    def _validate_utxo_spend(
        self, sender: NodeId, body: UtxoBody
    ) -> "TxReject | None":
        if not body.inputs:
            return TxReject.EMPTY_INPUTS
        if not body.outputs:
            return TxReject.EMPTY_OUTPUTS
        if len(set(body.inputs)) != len(body.inputs):
            return TxReject.DOUBLE_SPEND
        in_sum = 0
        for op in body.inputs:
            if op in self.spent:
                return TxReject.DOUBLE_SPEND
            held = self.utxos.get(op)
            if held is None:
                return TxReject.UNKNOWN_INPUT
            if held.owner != sender:
                return TxReject.WRONG_OWNER
            in_sum += held.amount
        if sum(out.amount for out in body.outputs) > in_sum:
            return TxReject.OUTPUT_EXCEEDS_INPUT
        return None

    def _validate_coinbase(
        self, tx: Transaction, expected_height: "int | None"
    ) -> "TxReject | None":
        body = tx.body
        if isinstance(body, AccountBody):
            expected = self.nonces.get(SYSTEM_ID, 0)
            if body.nonce != expected:
                return TxReject.BAD_COINBASE
            return None
        if len(body.inputs) != 1 or not body.outputs:
            return TxReject.BAD_COINBASE
        marker = body.inputs[0]
        if marker.index != COINBASE_INDEX:
            return TxReject.BAD_COINBASE
        if expected_height is not None and marker.tx_id != expected_height:
            return TxReject.BAD_COINBASE
        if marker in self.spent:
            # two coinbase grants in one block would share the height marker
            return TxReject.BAD_COINBASE
        return None

    # -- application --------------------------------------------------------

    def apply_tx(self, tx: Transaction) -> None:
        """Mutate in place; caller must have validated first."""
        body = tx.body
        coinbase = tx.is_coinbase()
        if isinstance(body, AccountBody):
            self.nonces[tx.sender] = body.nonce + 1
            if coinbase:
                self.issued += body.amount
            else:
                self.balances[tx.sender] = (
                    self.balances.get(tx.sender, 0) - body.amount
                )
            self.balances[body.recipient] = (
                self.balances.get(body.recipient, 0) + body.amount
            )
            return
        in_sum = 0
        for op in body.inputs:
            if coinbase:
                self.spent.add(op)
                continue
            in_sum += self.utxos.pop(op).amount
            self.spent.add(op)
        out_sum = 0
        for index, out in enumerate(body.outputs):
            self.utxos[Outpoint(tx.tx_id, index)] = out
            out_sum += out.amount
        if coinbase:
            self.issued += out_sum
        else:
            self.burned += in_sum - out_sum


def total_value(indices: TxIndices) -> int:
    """All value currently held in accounts and unspent outputs."""
    return sum(indices.balances.values()) + sum(
        out.amount for out in indices.utxos.values()
    )


def fund_accounts(alloc: Mapping[NodeId, int]) -> TxIndices:
    """Initial account balances, counted as pre-issued value."""
    balances = {node: units for node, units in alloc.items() if units > 0}
    return TxIndices(balances=balances, issued=sum(balances.values()))


def fund_utxos(alloc: Mapping[NodeId, Sequence[int]]) -> TxIndices:
    """Initial unspent outputs; outpoint ids derive from owner and slot."""
    utxos: dict[Outpoint, TxOutput] = {}
    issued = 0
    for node, amounts in alloc.items():
        for slot, amount in enumerate(amounts):
            if amount <= 0:
                continue
            grant_id = hash256(b"initial-grant" + node.public_key + enc_u64(slot))
            utxos[Outpoint(grant_id, 0)] = TxOutput(node, amount)
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
    UNKNOWN_PARENT_AFTER_TIMEOUT = "unknown_parent_after_timeout"


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
    reapplied_orphans: int = 0

    @property
    def stored(self) -> bool:
        return self.status in (
            ApplyStatus.ACCEPTED,
            ApplyStatus.SWITCHED,
            ApplyStatus.SIDE_BRANCH,
        )


@dataclass(frozen=True, slots=True)
class ForkWinMsg:
    """Announcement that the sender switched to a winning branch."""

    branch_first_block: int
    branch_head: int
    sender: NodeId


@dataclass
class ChainStats:
    applies: int = 0
    switches: int = 0
    rejects: int = 0
    orphans_expired: int = 0


# ---------------------------------------------------------------------------
# chain state
# ---------------------------------------------------------------------------


class ChainState:
    """Single-writer block tree plus the followed-chain selection.

    snapshot_store and verdict_cache may be shared by several ChainStates in
    one simulated network (same genesis allocation and parameters): verdicts
    and post-block snapshots depend only on a block's ancestry, never on the
    observing node, and a node only consults entries for blocks it holds.
    """

    def __init__(
        self,
        cfg: ChainConfig,
        scheme: SignatureScheme,
        genesis_indices: "TxIndices | None" = None,
        *,
        coinbase_rule: "Callable[[Block, tuple[NodeId, ...], int], tuple[Transaction, ...]] | None" = None,
        orphan_timeout: int = 512,
        max_orphans: int = 256,
        replay_check: bool = False,
        snapshot_store: "dict | None" = None,
        verdict_cache: "dict | None" = None,
    ) -> None:
        self.cfg = cfg
        self.scheme = scheme
        self.genesis = genesis_block(cfg)
        self.coinbase_rule = coinbase_rule
        self.orphan_timeout = orphan_timeout
        self.max_orphans = max_orphans
        self.replay_check = replay_check
        self.stats = ChainStats()

        g = self.genesis.block_hash
        base = genesis_indices.clone() if genesis_indices is not None else TxIndices()
        self._genesis_indices = base
        self.blocks: dict[int, Block] = {g: self.genesis}
        self.children: dict[int, list[int]] = {}
        self.blocks_at_height: dict[int, list[int]] = {0: [g]}
        self.main_by_height: dict[int, int] = {0: g}
        self.head: Block = self.genesis
        self.snapshots = snapshot_store if snapshot_store is not None else {}
        self.snapshots.setdefault(g, base)
        self.verdicts = verdict_cache if verdict_cache is not None else {}
        self.fork_events: list[tuple[int, int]] = []  # (first block, new head)

        self._orphans: dict[int, list[Block]] = {}
        self._orphan_hashes: set[int] = set()
        self._orphan_queue: deque[tuple[int, int]] = deque()  # (op, block_hash)
        self._expired: set[int] = set()
        self._ops = 0

    # -- views ---------------------------------------------------------------

    @property
    def height(self) -> int:
        return self.head.height

    def head_indices(self) -> TxIndices:
        return self.snapshots[self.head.block_hash]

    def head_indices_clone(self) -> TxIndices:
        return self.head_indices().clone()

    def system_nonce_at(self, block_hash: int) -> int:
        return self.snapshots[block_hash].nonces.get(SYSTEM_ID, 0)

    def has_block(self, block_hash: int) -> bool:
        return block_hash in self.blocks

    def on_main_chain(self, block_hash: int) -> bool:
        block = self.blocks.get(block_hash)
        return block is not None and self.main_by_height.get(block.height) == block_hash

    def best_score_at(self, height: int) -> "int | None":
        """Lowest known block score at a height, over every stored branch."""
        hashes = self.blocks_at_height.get(height)
        if not hashes:
            return None
        return min(block_score(self.blocks[h]) for h in hashes)

    def main_chain(self) -> list[Block]:
        return [
            self.blocks[self.main_by_height[h]] for h in range(self.head.height + 1)
        ]

    def confirmed_prefix(self) -> list[int]:
        """Hashes of followed-chain blocks buried at least confirm_depth deep."""
        last = max(0, self.head.height - self.cfg.confirm_depth)
        return [self.main_by_height[h] for h in range(last + 1)]

    # -- block admission ------------------------------------------------------

    def apply_block(self, block: Block) -> ApplyResult:
        self._ops += 1
        self.stats.applies += 1
        if self._ops % 32 == 0:
            self._prune_orphans()
        h = block.block_hash
        if h in self.blocks or h in self._orphan_hashes:
            return ApplyResult(ApplyStatus.REJECTED, BlockReject.DUPLICATE)
        if block.height == 0:
            self.stats.rejects += 1
            return ApplyResult(ApplyStatus.REJECTED, BlockReject.BAD_STRUCTURE)
        parent = self.blocks.get(block.parent_hash)
        if parent is None:
            if h in self._expired:
                self.stats.rejects += 1
                return ApplyResult(
                    ApplyStatus.REJECTED, BlockReject.UNKNOWN_PARENT_AFTER_TIMEOUT
                )
            self._buffer_orphan(block)
            return ApplyResult(ApplyStatus.ORPHANED)
        reason = self._full_validate(block, parent)
        if reason is not None:
            self.stats.rejects += 1
            return ApplyResult(ApplyStatus.REJECTED, reason)
        self._insert(block)
        status = self._reselect(block)
        drained = self._drain_orphans(h)
        return ApplyResult(status, reapplied_orphans=drained)

    def _insert(self, block: Block) -> None:
        h = block.block_hash
        self.blocks[h] = block
        self.children.setdefault(block.parent_hash, []).append(h)
        self.blocks_at_height.setdefault(block.height, []).append(h)

    # -- validation ------------------------------------------------------------

    def _full_validate(self, block: Block, parent: Block) -> "BlockReject | None":
        key = (block.block_hash, block.witness_sigs)
        if key in self.verdicts:
            return self.verdicts[key]
        reason = self._validate_uncached(block, parent)
        self.verdicts[key] = reason
        return reason

    def _validate_uncached(self, block: Block, parent: Block) -> "BlockReject | None":
        cfg = self.cfg
        if block.height != parent.height + 1:
            return BlockReject.BAD_STRUCTURE
        if block.proposer == SYSTEM_ID:
            return BlockReject.BAD_STRUCTURE
        txs = block.transactions
        if len({tx.tx_id for tx in txs}) != len(txs):
            return BlockReject.BAD_STRUCTURE
        user_count = sum(1 for tx in txs if not tx.is_coinbase())
        if user_count < cfg.tx_count_min:
            return BlockReject.TOO_FEW_TXS

        sigs = block.witness_sigs
        if len(sigs) < cfg.witness_m:
            return BlockReject.BAD_WITNESS
        ids = [node for node, _ in sigs]
        if len(set(ids)) != len(ids) or block.proposer in ids:
            return BlockReject.BAD_WITNESS
        message = witness_message(block)
        for node, sig in sigs:
            if not is_eligible_witness(block.proposer, node, cfg):
                return BlockReject.BAD_WITNESS
            if not self.scheme.verify(node, message, sig):
                return BlockReject.BAD_WITNESS

        indices, tx_reason = self._apply_txs(block, parent)
        if tx_reason is not None:
            return tx_reason
        if self.coinbase_rule is not None:
            witnesses = tuple(node for node, _ in sigs)
            system_nonce = self.snapshots[parent.block_hash].nonces.get(SYSTEM_ID, 0)
            expected = self.coinbase_rule(block, witnesses, system_nonce)
            coinbase = tuple(tx for tx in txs if tx.is_coinbase())
            if coinbase != expected:
                return BlockReject.BAD_COINBASE
        self.snapshots.setdefault(block.block_hash, indices)
        return None

    def _apply_txs(
        self, block: Block, parent: Block
    ) -> "tuple[TxIndices | None, BlockReject | None]":
        # keyed by block hash, which covers parent and transactions, so a
        # snapshot computed during candidate validation is reusable verbatim
        existing = self.snapshots.get(block.block_hash)
        if existing is not None:
            return existing, None
        indices = self.snapshots[parent.block_hash].clone()
        for tx in block.transactions:
            reject = indices.validate_tx(
                tx, self.scheme, expected_height=block.height, in_block=True
            )
            if reject is not None:
                if reject is TxReject.BAD_COINBASE:
                    return None, BlockReject.BAD_COINBASE
                return None, BlockReject.INVALID_TX
            indices.apply_tx(tx)
        return indices, None

    def candidate_block_valid(self, block: Block) -> bool:
        """Pre-certificate validity: structure and transactions only.

        This is what a witness checks before endorsing; the witness count and
        the exact coinbase schedule apply to minted blocks, not candidates.
        """
        parent = self.blocks.get(block.parent_hash)
        if parent is None or block.height != parent.height + 1:
            return False
        if block.proposer == SYSTEM_ID:
            return False
        key = (block.block_hash, None)
        if key in self.verdicts:
            return self.verdicts[key]
        txs = block.transactions
        ok = (
            len({tx.tx_id for tx in txs}) == len(txs)
            and sum(1 for tx in txs if not tx.is_coinbase()) >= self.cfg.tx_count_min
        )
        if ok:
            indices, reason = self._apply_txs(block, parent)
            ok = reason is None
            if ok:
                self.snapshots.setdefault(block.block_hash, indices)
        self.verdicts[key] = ok
        return ok

    # -- orphan pool -------------------------------------------------------------

    def _buffer_orphan(self, block: Block) -> None:
        if len(self._orphan_hashes) >= self.max_orphans:
            self._evict_one_orphan()
        h = block.block_hash
        self._orphans.setdefault(block.parent_hash, []).append(block)
        self._orphan_hashes.add(h)
        self._orphan_queue.append((self._ops, h))

    def _evict_one_orphan(self) -> None:
        while self._orphan_queue:
            _, h = self._orphan_queue.popleft()
            if h in self._orphan_hashes:
                self._discard_orphan(h)
                return

    def _discard_orphan(self, h: int) -> None:
        self._orphan_hashes.discard(h)
        self._expired.add(h)
        self.stats.orphans_expired += 1
        for parent_hash, waiting in list(self._orphans.items()):
            kept = [b for b in waiting if b.block_hash != h]
            if kept:
                self._orphans[parent_hash] = kept
            else:
                self._orphans.pop(parent_hash, None)

    def _prune_orphans(self) -> None:
        horizon = self._ops - self.orphan_timeout
        while self._orphan_queue and self._orphan_queue[0][0] < horizon:
            _, h = self._orphan_queue.popleft()
            if h in self._orphan_hashes:
                self._discard_orphan(h)

    def _drain_orphans(self, parent_hash: int) -> int:
        waiting = self._orphans.pop(parent_hash, None)
        if not waiting:
            return 0
        drained = 0
        for block in waiting:
            self._orphan_hashes.discard(block.block_hash)
            result = self.apply_block(block)
            drained += 1 + result.reapplied_orphans
        return drained

    # -- fork choice -------------------------------------------------------------

    def _subtree_max_height(self, root_hash: int) -> int:
        best = self.blocks[root_hash].height
        stack = [root_hash]
        while stack:
            cur = stack.pop()
            kids = self.children.get(cur)
            if not kids:
                best = max(best, self.blocks[cur].height)
                continue
            stack.extend(kids)
        return best

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

    def _follow(self) -> dict[int, int]:
        """Walk from genesis, deciding every fork point; the followed chain."""
        chain: dict[int, int] = {0: self.genesis.block_hash}
        cur = self.genesis.block_hash
        height = 0
        while True:
            kids = self.children.get(cur)
            if not kids:
                return chain
            nxt = kids[0] if len(kids) == 1 else self._choose_child(cur, kids)
            height += 1
            chain[height] = nxt
            cur = nxt

    def _reselect(self, inserted: Block) -> ApplyStatus:
        h = inserted.block_hash
        parent_hash = inserted.parent_hash
        if (
            parent_hash == self.head.block_hash
            and len(self.children[parent_hash]) == 1
        ):
            # extending the followed head never flips earlier decisions
            self.main_by_height[inserted.height] = h
            self.head = inserted
            return ApplyStatus.ACCEPTED
        chain = self._follow()
        old = self.main_by_height
        new_head_hash = chain[max(chain)]
        diverged: "int | None" = None
        limit = min(max(chain), max(old))
        for height in range(1, limit + 1):
            if old.get(height) != chain.get(height):
                diverged = height
                break
        self.main_by_height = chain
        self.head = self.blocks[new_head_hash]
        on_main = chain.get(inserted.height) == h
        if diverged is not None:
            self.stats.switches += 1
            self.fork_events.append((chain[diverged], new_head_hash))
            if self.replay_check:
                self.assert_replay_matches()
            return ApplyStatus.SWITCHED if on_main else ApplyStatus.SIDE_BRANCH
        return ApplyStatus.ACCEPTED if on_main else ApplyStatus.SIDE_BRANCH

    def pop_fork_events(self) -> list[tuple[int, int]]:
        events, self.fork_events = self.fork_events, []
        return events

    # -- replay oracle -----------------------------------------------------------

    def replay_from_genesis(self) -> TxIndices:
        indices = self._genesis_indices.clone()
        for height in range(1, self.head.height + 1):
            block = self.blocks[self.main_by_height[height]]
            for tx in block.transactions:
                indices.apply_tx(tx)
        return indices

    def assert_replay_matches(self) -> None:
        if self.replay_from_genesis() != self.head_indices():
            raise LedgerInvariantError(
                "incremental indices diverged from genesis replay"
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
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 6 or data[0] != FORMAT_TAG or data[1] != REC_CHAIN_FILE:
            raise SerializationError("not a chain file")
        count = int.from_bytes(data[2:6], "big")
        pos = 6
        blocks = []
        for _ in range(count):
            if pos + 4 > len(data):
                raise SerializationError("truncated chain file")
            size = int.from_bytes(data[pos : pos + 4], "big")
            pos += 4
            blocks.append(deserialize_block(data[pos : pos + size]))
            pos += size
        if pos != len(data):
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

    def main_chain_json(self) -> str:
        rows = []
        for block in self.main_chain():
            rows.append(
                {
                    "height": block.height,
                    "hash": f"{block.block_hash:064x}",
                    "parent": f"{block.parent_hash:064x}",
                    "proposer": block.proposer.hex(),
                    "tx_count": len(block.transactions),
                    "witnesses": len(block.witness_sigs),
                    "score": f"{block_score(block):064x}" if block.transactions else None,
                }
            )
        return json.dumps(rows, indent=2, sort_keys=True)


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
