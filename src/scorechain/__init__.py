"""Score-ordered blockchain with witness attestation, plus its test bench.

The package splits into protocol code (types, scoring, witness flow, ledger,
incentives), a seeded lossy-network simulator, and a small analysis layer
that computes the closed-form safety numbers and checks them against Monte
Carlo runs.
"""

from .analysis import (
    ChainScaleRow,
    Comparison,
    GridRow,
    HEADLINE_PARAMS,
    REFERENCE_BOUNDS,
    REFERENCE_CHAINS,
    SafetyParams,
    chain_scale_bounds_ok,
    chain_scale_rows,
    compare_analytic_empirical,
    log10_pr_misled,
    misled_exponent,
    misled_grid,
    pr_invalid_witnessed,
    pr_misled,
    wilson_interval,
    write_chain_scale_csv,
    write_misled_csv,
)
from .core_types import (
    AccountBody,
    Block,
    ChainConfig,
    NodeId,
    Outpoint,
    SerializationError,
    SignatureScheme,
    Transaction,
    TxModel,
    TxOutput,
    UtxoBody,
    block_core_bytes,
    canonical_serialize,
    coinbase_transaction,
    deserialize_block,
    deserialize_transaction,
    genesis_block,
    get_scheme,
    hash256,
    make_transaction,
    serialize_block,
)
from .incentive import (
    RewardSchedule,
    build_coinbase,
    coinbase_credits,
    make_coinbase_rule,
)
from .ledger import (
    ApplyResult,
    ApplyStatus,
    BlockReject,
    ChainState,
    ForkWinMsg,
    LedgerInvariantError,
    TxIndices,
    TxReject,
    confirmed_conflicts,
    fund_accounts,
    fund_utxos,
    total_value,
)
from .scoring import BlockWinner, block_score, compare_blocks, score_preimage, sort_key
from .simnet import (
    CorruptionResult,
    LatencySpec,
    MissModelResult,
    SimConfig,
    SimConfigError,
    SimReport,
    Simulator,
    Strategy,
    TrialsResult,
    run_miss_model,
    run_simulation,
    run_trials,
    witness_corruption_trials,
    write_trials_csv,
)
from .witness import (
    Refusal,
    RefusalReason,
    WitnessSignature,
    distance,
    is_eligible_witness,
    mint_block,
    propose_block,
    sign_witness,
)

__version__ = "0.1.0"
