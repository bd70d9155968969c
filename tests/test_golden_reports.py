"""Golden SimReport fingerprints: refactors that claim "same behaviour" must
keep every report byte-identical.

Each pin is the sha256 of ``SimReport.to_json()`` for one config and seed,
run with the replay oracle on. The configs cover lossy links, fork-win
retransmission, all three adversaries, both ledger models, block rewards in
both (the account-model coinbase spends consecutive system nonces, the UTXO
one a height marker), a long run with many branch switches, a lossy
one-witness, depth-one chain whose honest nodes are misled
(``misled_events`` > 0), Ed25519 signatures and a higher transaction rate.
Between them they set every ``SimConfig`` field but ``seed`` away from its
default.

Two more pin the event order within a tick. A recorder wraps the
simulator's ``_deliver`` and notes ``(tick, message type, sender, target)``
for every delivery in processing order, and for these two configs the pin
hashes that list after the report: one with zero-delay deliveries, which
join the tick being run, and one lossy with a fixed latency, where every
delivery of a tick was scheduled in the same earlier tick.

A pin that moves means the simulated behaviour changed; that is either a
bug to fix or a deliberate change (such as a new RNG draw order) to record
in CHANGES.md with the pins recomputed. ``python tests/test_golden_reports.py``
prints every pin as computed now, with its report's counters, so a re-pin
can state what moved.
"""

import hashlib
import json
from dataclasses import fields, replace

import pytest

from scorechain.core_types import ChainConfig, TxModel
from scorechain.incentive import RewardSchedule
from scorechain.simnet import (
    COUNTER_FIELDS,
    LatencySpec,
    SIM_WITNESS_THRESHOLD,
    SimConfig,
    SimReport,
    Simulator,
    Strategy,
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
    "trace_zero_delay": replace(BASE, latency=LatencySpec(0, 2)),
    "trace_fixed_latency_lossy": replace(BASE, latency=LatencySpec(3, 3), delivery_ratio=0.6),
}
# configs whose pin covers the recorded deliveries as well as the report
DELIVERY_ORDER = ("trace_zero_delay", "trace_fixed_latency_lossy")

PINS = {
    ("default", 1): "112f0ac944db2daace7dab193062dd78d45ed9cb3fe3309098ff22448456c9fd",
    ("default", 2): "5f935fcf875f3be191befedd9a97237969c5aec3918d29f6d749fd7169bf32e3",
    ("lossy", 1): "a84513cad2abc274d5cbe07de6f842103a149428e94e6d396f63ff2054fe2e9e",
    ("lossy", 2): "a067bb4a2e4458605d2a5249a5fbda835534b8db5a8fba7445dfeec2080ff792",
    ("fork_win_extra", 1): "1cc85ac0de9a9982066ae0771a39b2793b337b6f04ffde6022a7e0eb782745fa",
    ("fork_win_extra", 2): "15ee94de0058a7e303520a78ee1b5b41b4e0c84c3abdd68e7f24ec1f7d90f1bb",
    ("double_spend_account", 1): "aa19cad5ef82659a4f152505441a5a314b3a8027b52549a7aa04ff612e99089f",
    ("double_spend_account", 2): "462db230f226a0c2c654ef73668d71845825e14aad62d17f47d36c67791d5379",
    ("double_spend_utxo_rewards", 1): "4cb575338ea8f94d7b37547d569254bbe9a3710b46aefa24e56b9610d0bf0084",
    ("double_spend_utxo_rewards", 2): "958673a51300cd0607364af38c5eba17efdb04f61e1a53d17432733ed1a420d6",
    ("equivocate", 1): "97f8007d99befb2b5293adebbac9f282593d63ea90b033c3d0f116872711592a",
    ("equivocate", 2): "c9881045f3004c90889142b26da7c47474001eac71e02afe44bdd717c6a93a2a",
    ("invalid_push", 1): "63ecbee370be132037fd065fec29afd36f81a1b782c73235fb86f707dde32ebb",
    ("invalid_push", 2): "ba235e4a0b083c2e5d2f49a040b8263bb029335afaa35a9731c52badcdaf479e",
    ("long", 1): "0d00be57adb090a1f913de5a5158e4116172aaa8d75306ebaa6651d4904a9eac",
    ("long", 2): "39ee39ed6844b16bb5d43dde9975c8524630e2ecb08cb3758cd457cddba049d3",
    ("account_rewards", 1): "ae27796975808c52deb98f2f5fd3a6e22cd34e77e995a93cee6d5c0100cde482",
    ("account_rewards", 2): "f5acb8ea089000b54f474b4ccb073555fe10103516e9b0e408e040efe81b0236",
    ("misled", 1): "d4ecaec32fa7be35b78156b832a956bf4f150a31757a17c72ac0b77c8a28feeb",
    ("misled", 2): "99a14070df9801430368ca131e8ace5ad4727d6f66dacd798f192b4b9e578af1",
    ("ed25519", 1): "8d0adc8dba10348591c785f70938312f0b04f0d561580c07bf7cba84f5fbadc6",
    ("ed25519", 2): "331f42fac5b8abc3bc623153c2c9614d38bd91a53666e2479f9fada4bad863c7",
    ("tx_rate", 1): "1cd9e5ab2219d446689c801f77d814e90a1d9d63c562a8271575f08c654131eb",
    ("tx_rate", 2): "abf23659ac0bf803d84bc2433dfffdb6c2b382aa03e7145e97ba79c3dea6abad",
    ("trace_zero_delay", 1): "424080e78589ccc079fca24bc28432c7465b2ce40ce23122b9d75c792df574e4",
    ("trace_zero_delay", 2): "a0a4cdfaf60b5daf09ee8c74352f0656418d134f131512c463de7f30de2412c2",
    ("trace_fixed_latency_lossy", 1): "66880a3ef6588fb2547cc252eddca6720547ffc1c6313af29997d279d33168b6",
    ("trace_fixed_latency_lossy", 2): "34544d566c356b04092752e605a363611057fa4efdf00b6aa56952f2546edfea",
}


def run_recorded(cfg: SimConfig) -> tuple[SimReport, list[tuple[int, str, int, int]]]:
    """One run's report and its deliveries, in processing order, as
    (tick, message type, sender, target)."""
    sim = Simulator(cfg)
    deliveries = []
    deliver = sim._deliver

    def recorded(target, sender, message):
        deliver(target, sender, message)
        deliveries.append((sim._now, type(message).__name__, sender, target))

    sim._deliver = recorded
    return sim.run(), deliveries


def fingerprint(name: str, seed: int) -> tuple[str, SimReport]:
    """A golden run's pin, and its report."""
    report, deliveries = run_recorded(replace(CONFIGS[name], seed=seed))
    digest = hashlib.sha256(report.to_json().encode())
    if name in DELIVERY_ORDER:
        digest.update(json.dumps(deliveries).encode())
    return digest.hexdigest(), report


@pytest.mark.parametrize("name,seed", sorted(PINS))
def test_report_matches_golden_pin(name, seed):
    assert fingerprint(name, seed)[0] == PINS[name, seed]


def test_every_sim_setting_is_pinned():
    default = SimConfig()
    unpinned = [
        f.name
        for f in fields(SimConfig)
        if f.name != "seed"
        and all(getattr(cfg, f.name) == getattr(default, f.name) for cfg in CONFIGS.values())
    ]
    assert unpinned == [], "no golden config sets these away from their default"


if __name__ == "__main__":
    # every pin as computed now, ready to paste into PINS, and its counters
    for name, seed in PINS:
        pin, report = fingerprint(name, seed)
        verdict = "kept" if pin == PINS[name, seed] else "MOVED"
        counters = " ".join(f"{f}={getattr(report, f)}" for f in COUNTER_FIELDS)
        print(f'    ("{name}", {seed}): "{pin}",  # {verdict}: {counters}')
