"""Golden SimReport fingerprints: refactors that claim "same behaviour" must
keep every report byte-identical.

Each pin is the sha256 of ``SimReport.to_json()`` for one config and seed,
run with the replay oracle on. The configs cover lossy links, fork-win
retransmission, all three adversaries, both ledger models, block rewards in
both (the account-model coinbase spends consecutive system nonces, the UTXO
one a height marker), a long run with many branch switches, a lossy
one-witness, depth-one chain whose honest nodes are misled
(``misled_events`` > 0), Ed25519 signatures and a higher transaction rate.
Between them they set every ``SimConfig`` field but ``seed`` and ``trace``
away from its default. Two more record every delivery in processing order
(``trace``), so they pin the event order within a tick: one with zero-delay
deliveries, which join the tick being run, and one lossy with a fixed
latency, where every delivery of a tick was scheduled in the same earlier
tick. A pin that moves means
the simulated behaviour changed; that is either a bug to fix or a deliberate
change (such as a new RNG draw order) to record in CHANGES.md with the pins
recomputed.
"""

import hashlib
from dataclasses import fields, replace

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
    "lossy": replace(BASE, delivery_ratio=0.6, latency=LatencySpec(1, 6)),
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
        latency=LatencySpec(1, 12),
        chain=ChainConfig(
            witness_m=1, confirm_depth=1, witness_threshold=SIM_WITNESS_THRESHOLD
        ),
    ),
    "ed25519": replace(BASE, scheme="ed25519", n_nodes=10, duration=100),
    "tx_rate": replace(BASE, tx_rate=3.0),
    "trace_zero_delay": replace(BASE, trace=True, latency=LatencySpec(0, 2)),
    "trace_fixed_latency_lossy": replace(
        BASE, trace=True, latency=LatencySpec(3, 3), delivery_ratio=0.6
    ),
}

PINS = {
    ("default", 1): "29abb303a1c9f6953576a23c93f14173b47da3ca742b444bd5bac21e9e5b6d43",
    ("default", 2): "65f85fa4ff20c1f6bb388be006adf63a9c44bfad13a455fdbc7e546cf3082412",
    ("lossy", 1): "ef616b797165916a3fc250bd2527205ba14d19c627749098db13b05b61b045ba",
    ("lossy", 2): "ae6ddf5cea79f89f3f0a325c8ad79ca4fcab0300256753d2e63d090734b595e4",
    ("fork_win_extra", 1): "e82071da30cefeda1344a3c035a1e5f73cb6ba0c10d616550752802d695e87f0",
    ("fork_win_extra", 2): "1891f67918dce1a80444f963e5c3e3a595d2522db262742216eaf40f82795e07",
    ("double_spend_account", 1): "321602e40d91214e3acebb37fa0d779b86f42b1a62e0b42ec45d7dac66e46e12",
    ("double_spend_account", 2): "7dbf710df31f5452536121dd4d8d3d009cbe91b9c900598d7c33a861ebcd3313",
    ("double_spend_utxo_rewards", 1): "1a152cfda9bc3ce704eb3e761494f16e6f6ed96be56ab56f7088c7ec0ed53b26",
    ("double_spend_utxo_rewards", 2): "a0070cb80fc8c4ba6c70871520d6b39fb16570ea737ee6b9e0245e45cb151d7e",
    ("equivocate", 1): "8ed34c3fe20bd184dcb84914cbc0a7b490ed29371b7d47429fc1cab9fe46f83b",
    ("equivocate", 2): "4ef1b2a8da08329b80b52599c2593d0010e89b1a4ec0b2e35a9f19870a312c12",
    ("invalid_push", 1): "f61d564006f0c4cf1e9fb4c19e867452eec04cdeed91d919b8de601b11b97900",
    ("invalid_push", 2): "90ff2c1799a12d4fcf838365c1fdf7b5e72239a4c2aaaec9add5649c0380de27",
    ("long", 1): "74d1a0f41bebcc74e548ae579053eba978e7b7bf5c4edc92d869b182963cc731",
    ("long", 2): "75cd3efa620da6e532caff41149fe1bcef9c8c94fea440669304cbedfa95f88b",
    ("account_rewards", 1): "51024d78cd9929d9e189d647c7e5f7225428c227ec34278046d78eb1bceef4cf",
    ("account_rewards", 2): "9c304f6d31a41f5002b06e32d4bdb263858c3a8c1046b146ea6ca33b5555069f",
    ("misled", 1): "c59c42b42d842159fd3e3d3e64d7d23c60828bd09eb08c1d35c33dfe2ffeb941",
    ("misled", 2): "a4cccc4d179f37e309fb3144be3655fbd899ef8c68578130d804a73e36056370",
    ("ed25519", 1): "91269f9d4021f450920893696473f8e9263536f3151f82c255c783c2f086e95c",
    ("ed25519", 2): "16a4b6d4597553d6db021e83270dbee5f44cc69a8c7b74b9eeee00bef49f6442",
    ("tx_rate", 1): "e289f92dfb8fc8c974ee25d1a8f6b517218655c47bf235fdbea4f5fb885f66f2",
    ("tx_rate", 2): "827e14f2899d265aa0b657d66adc32259c18eea85e639a56bc3139c5cff38899",
    ("trace_zero_delay", 1): "edd476e7b24fab13ca3428ef2e132d22ec426251a68f75b91be54588a6b8b1ec",
    ("trace_zero_delay", 2): "50fb4ff73065af19809de54c6d8a574b4ed23ee3d6b6e1d4130e6576bea3f2b2",
    ("trace_fixed_latency_lossy", 1): "50b48a7dddd25b30dcb7e67a87c3c7566686fe7ada165e75b8a49934f8539e58",
    ("trace_fixed_latency_lossy", 2): "f13569d93e5e2bff9884d9fbdf21dc5559626d81139058a7aab07849c95361b7",
}


@pytest.mark.parametrize("name,seed", sorted(PINS))
def test_report_matches_golden_pin(name, seed):
    report = run_simulation(replace(CONFIGS[name], seed=seed))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == PINS[name, seed]


def test_every_sim_setting_is_pinned():
    default = SimConfig()
    unpinned = [
        f.name
        for f in fields(SimConfig)
        if f.name not in ("seed", "trace")
        and all(getattr(cfg, f.name) == getattr(default, f.name) for cfg in CONFIGS.values())
    ]
    assert unpinned == [], "no golden config sets these away from their default"
