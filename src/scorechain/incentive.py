"""Block rewards: one coinbase rule both mints and checks them.

The chain itself is economically empty. A ``RewardSchedule`` becomes value
only through ``make_coinbase_rule``: minting appends exactly the system
transactions the rule returns for (block, witnesses, system nonce), and a
ledger holding the same rule accepts a block only if its system transactions
are exactly that output. A ledger without a rule expects none, so a system
transaction the chain's rule does not prescribe is never valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core_types import (
    AccountBody,
    Block,
    COINBASE_INDEX,
    NodeId,
    Outpoint,
    Transaction,
    TxModel,
    TxOutput,
    UtxoBody,
    coinbase_transaction,
)


@dataclass(frozen=True, slots=True)
class RewardSchedule:
    proposer_reward: int = 0
    witness_subsidy: int = 0

    def __post_init__(self) -> None:
        if self.proposer_reward < 0 or self.witness_subsidy < 0:
            raise ValueError("rewards must be non-negative")


def coinbase_credits(
    proposer: NodeId, witnesses: Sequence[NodeId], schedule: RewardSchedule
) -> tuple[tuple[NodeId, int], ...]:
    """(party, amount) pairs, proposer first, zero amounts dropped."""
    credits = []
    if schedule.proposer_reward > 0:
        credits.append((proposer, schedule.proposer_reward))
    if schedule.witness_subsidy > 0:
        for witness in witnesses:
            credits.append((witness, schedule.witness_subsidy))
    return tuple(credits)


def build_coinbase(
    model: TxModel,
    height: int,
    proposer: NodeId,
    witnesses: Sequence[NodeId],
    schedule: RewardSchedule,
    system_nonce: int,
) -> tuple[Transaction, ...]:
    """The system transactions crediting a block's proposer and witnesses.

    UTXO model: one transaction whose single input is a height marker
    (tx_id = height, index = COINBASE_INDEX), keeping coinbase ids unique
    across heights even when the credited parties repeat. Account model: one
    single-recipient system transaction per credit, consecutive nonces.
    An all-zero schedule produces no transactions at all.
    """
    credits = coinbase_credits(proposer, witnesses, schedule)
    if not credits:
        return ()
    if model is TxModel.UTXO:
        marker = Outpoint(tx_id=height, index=COINBASE_INDEX)
        outputs = tuple(TxOutput(owner, amount) for owner, amount in credits)
        return (coinbase_transaction(UtxoBody((marker,), outputs)),)
    txs = []
    for offset, (owner, amount) in enumerate(credits):
        body = AccountBody(recipient=owner, amount=amount, nonce=system_nonce + offset)
        txs.append(coinbase_transaction(body))
    return tuple(txs)


CoinbaseRule = Callable[[Block, tuple[NodeId, ...], int], tuple[Transaction, ...]]


def make_coinbase_rule(schedule: RewardSchedule, model: TxModel) -> CoinbaseRule:
    """The coinbase a block must carry under this schedule and model.

    ``mint_block`` appends the rule's output to the proposal, and a ledger
    configured with the same rule rejects blocks whose system transactions
    differ from it. An all-zero schedule prescribes no transactions.
    """

    def rule(
        block: Block, witnesses: tuple[NodeId, ...], system_nonce: int
    ) -> tuple[Transaction, ...]:
        return build_coinbase(
            model, block.height, block.proposer, witnesses, schedule, system_nonce
        )

    return rule
