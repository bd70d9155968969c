"""Golden SimReport fingerprints: refactors that claim "same behaviour" must
keep every report byte-identical.

Each pin is the sha256 of ``SimReport.to_json()`` for one stub-scheme config
and seed, run with the replay oracle on. The configs cover lossy links,
fork-win retransmission, all three adversaries, both ledger models, block
rewards in both (the account-model coinbase spends consecutive system
nonces, the UTXO one a height marker), a long run with many branch
switches, and a lossy one-witness, depth-one chain whose honest nodes are
misled (``misled_events`` > 0). A pin that moves means
the simulated behaviour changed; that is either a bug to fix or a deliberate
change (such as a new RNG draw order) to record in CHANGES.md with the pins
recomputed.
"""

import hashlib
from dataclasses import replace

import pytest

from scorechain.core_types import ChainConfig, TxModel
from scorechain.incentive import RewardSchedule
from scorechain.simnet import (
    LatencySpec,
    SIM_WITNESS_THRESHOLD,
    SimConfig,
    Strategy,
    run_simulation,
)

BASE = SimConfig(replay_check=True)
ADVERSARIES = dict(n_nodes=12, adversary_fraction=0.25)

CONFIGS = {
    "default": BASE,
    "lossy": replace(BASE, delivery_ratio=0.6, latency=LatencySpec.uniform(1, 6)),
    "fork_win_extra": replace(BASE, fork_win_extra=2),
    "double_spend_account": replace(
        BASE, **ADVERSARIES, adversary_strategy=Strategy.DOUBLE_SPEND
    ),
    "double_spend_utxo_rewards": replace(
        BASE,
        **ADVERSARIES,
        adversary_strategy=Strategy.DOUBLE_SPEND,
        tx_model=TxModel.UTXO,
        rewards=RewardSchedule(50, 5),
    ),
    "equivocate": replace(BASE, **ADVERSARIES, adversary_strategy=Strategy.EQUIVOCATE),
    "invalid_push": replace(
        BASE, **ADVERSARIES, adversary_strategy=Strategy.INVALID_BLOCK_PUSH
    ),
    "long": replace(BASE, duration=1200),
    "account_rewards": replace(BASE, rewards=RewardSchedule(50, 5)),
    # seeds 1 and 2 mislead 4 and 18 honest nodes, each by a confirmed
    # block that a later branch switch replaced
    "misled": replace(
        BASE,
        delivery_ratio=0.5,
        latency=LatencySpec.uniform(1, 12),
        chain=ChainConfig(
            witness_m=1, confirm_depth=1, witness_threshold=SIM_WITNESS_THRESHOLD
        ),
    ),
}

PINS = {
    ("default", 1): "35e09a98b9a43dd98142f58fc0eac1c4cb1f800d1d7797d96874367218afc8ca",
    ("default", 2): "19af5b470abd64b0953db8b0323ecfcd7deca42d1034bd665f085f456638516c",
    ("lossy", 1): "b65f84bc96c210ae29033bd2161f0d4f953a26a3ae133f921721b9e762b3bd94",
    ("lossy", 2): "70658c834151b75e7b7c2bfe1f391d3995d32647ce1252e62ff217265792d598",
    ("fork_win_extra", 1): "c39ed45a2aee934af5a1f86697f9e2d37a1a9da1a9ac20d4e866e6dbc24f30fc",
    ("fork_win_extra", 2): "72bc8c8347217493790fd94eb8080a7414e19a83d432f8a4bda524490bd95256",
    ("double_spend_account", 1): "3a228e121b10e8cef064198790cc814eb5809a7c297e05b6d10b67d66b0a8599",
    ("double_spend_account", 2): "a7d388a7243f12acd70cbae91ea2ae500311d4018fe9fe1d780642716f53cb31",
    ("double_spend_utxo_rewards", 1): "49af88394fedb8a0ac02b7a4d4084b0f64f8d4d0c9bdbe4748b3ab3b99f7c3f0",
    ("double_spend_utxo_rewards", 2): "5543791df0f79f5d078c1b5189eb52d12b22cf6a9f69e5408da66f0cdfe654a7",
    ("equivocate", 1): "8c45100f581b5b2886cd7d3c3d24a60633ec2fcb9947f889538e03f955b48589",
    ("equivocate", 2): "0f687582bcf68342180cf639b09f17c379cbd1369522e380cf55228e80d373b2",
    ("invalid_push", 1): "ec16336c4721cb8edd61c55094bf674803308ed2e6bbe35abeae8f872377ae6e",
    ("invalid_push", 2): "d368a221c35aae8b9cfd772e0e658922c299148e8b0a5152be46ba1a37893908",
    ("long", 1): "d77ed96434990bc83ab77dae4a4449d12ae29693945335d9ad526b69dc7d8cab",
    ("long", 2): "c2195d02739566050e48071697accfe598eaef9cb5846b567d71343673948d86",
    ("account_rewards", 1): "ea7a59cd5eaf6ea525d5bc98ac4587d4fe81413f2ab0e39ff1aad01af039ce30",
    ("account_rewards", 2): "0d2c23fcf374442946c847facebf686595f8c93538cb1b4f40d590d354b8633b",
    ("misled", 1): "3e87865eaf62aaf37ba7bcc4282f28ac626d9e3a821139cecde9cc20b069a28d",
    ("misled", 2): "624e4b5628c95371606cb4ecce5f9eafaebd27e7753a8066ba1af0f132613b6d",
}


@pytest.mark.parametrize("name,seed", sorted(PINS))
def test_report_matches_golden_pin(name, seed):
    report = run_simulation(replace(CONFIGS[name], seed=seed))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == PINS[name, seed]
