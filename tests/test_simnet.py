"""Event-driven network simulation: config, determinism, attacks, Monte Carlo."""

import copy
import csv
import json
import math
import random
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from scorechain import ledger, simnet
from scorechain.analysis import (
    SafetyParams,
    chain_scale_bounds_ok,
    chain_scale_rows,
    misled_grid,
    write_csv,
)
from scorechain.cli import Check, _three_sigma_ok, main as cli_main
from scorechain.core_types import (
    AccountBody,
    ChainConfig,
    Ed25519Scheme,
    HashStubScheme,
    MAX_HASH,
    SignatureScheme,
    Transaction,
    TxModel,
    certify,
    deserialize_block,
    deserialize_transaction,
    enc_u256,
    get_scheme,
    make_transaction,
    serialize_block,
)
from scorechain.incentive import RewardSchedule, make_coinbase_rule
from scorechain.ledger import ChainState, TxReject, fund_accounts
from scorechain.simnet import (
    LatencySpec,
    SIM_WITNESS_THRESHOLD,
    SimConfig,
    SimConfigError,
    Simulator,
    Strategy,
    run_miss_model,
    run_simulation,
    run_trials,
    witness_corruption_trials,
)
from scorechain.witness import endorse, mint_block, propose_block
from test_golden_reports import run_recorded

SMALL = SimConfig(n_nodes=10, duration=80, tx_rate=1.0, seed=5)
STUB = get_scheme("stub")


# -- configuration -----------------------------------------------------------------


def test_validation_names_the_offending_key():
    # every check runs at construction, so each config is built inside raises
    cases = [
        (lambda: SimConfig(n_nodes=1), "n_nodes"),
        # a proposer cannot witness itself, so m witnesses need n > m nodes
        (lambda: SimConfig(n_nodes=2), "n_nodes"),
        (
            lambda: SimConfig(
                n_nodes=4,
                chain=ChainConfig(witness_m=4, witness_threshold=SIM_WITNESS_THRESHOLD),
            ),
            "n_nodes",
        ),
        (lambda: SimConfig(adversary_fraction=1.5), "adversary_fraction"),
        (lambda: SimConfig(delivery_ratio=0.0), "delivery_ratio"),
        (lambda: SimConfig(duration=0), "duration"),
        (lambda: SimConfig(tx_rate=-0.5), "tx_rate"),
        (lambda: SimConfig(fork_win_extra=-1), "fork_win_extra"),
        (lambda: SimConfig(scheme="rsa"), "scheme"),
        (lambda: SimConfig(latency=LatencySpec(5, 2)), "latency"),
    ]
    for build, key in cases:
        with pytest.raises(SimConfigError) as err:
            build()
        assert err.value.key == key
        assert key in str(err.value)


def test_config_dict_round_trip():
    cfg = SimConfig(
        n_nodes=9,
        adversary_fraction=0.25,
        delivery_ratio=0.8,
        latency=LatencySpec(2, 5),
        chain=ChainConfig(tx_count_min=3, witness_m=3, confirm_depth=4),
        tx_rate=2.5,
        duration=50,
        seed=99,
        adversary_strategy=Strategy.DOUBLE_SPEND,
        tx_model=TxModel.UTXO,
        rewards=RewardSchedule(50, 5),
        fork_win_extra=2,
    )
    data = json.loads(json.dumps(cfg.to_dict()))  # survive a real JSON trip
    assert SimConfig.from_dict(data) == cfg
    assert data["chain"]["witness_threshold"] == f"{cfg.chain.witness_threshold:x}"
    assert data["latency"] == {"lo": 2, "hi": 5}
    # a missing reward means 0, and null means no rewards
    partial = SimConfig.from_dict({"rewards": {"witness_subsidy": 5}})
    assert partial.rewards == RewardSchedule(0, 5)
    assert SimConfig.from_dict({"rewards": None}).rewards is None


# any valid config: small and large seeds (JSON readers hold integers exactly
# only up to 2**53), and small thresholds, which are written in hex all the same
VALID_CONFIGS = st.builds(
    SimConfig,
    n_nodes=st.integers(5, 64),
    adversary_fraction=st.floats(0.0, 1.0),
    delivery_ratio=st.floats(0.0, 1.0, exclude_min=True),
    latency=st.builds(LatencySpec, st.integers(0, 5), st.integers(5, 40)),
    chain=st.builds(
        ChainConfig,
        tx_count_min=st.integers(1, 8),
        witness_m=st.integers(1, 4),
        confirm_depth=st.integers(1, 8),
        witness_threshold=st.one_of(st.integers(1, 2**16), st.integers(1, MAX_HASH)),
    ),
    tx_rate=st.floats(0.0, 20.0),
    duration=st.integers(1, 10**5),
    seed=st.one_of(st.integers(0, 2**16), st.integers(0, 2**256)),
    adversary_strategy=st.sampled_from(Strategy),
    tx_model=st.sampled_from(TxModel),
    scheme=st.sampled_from(["stub", "ed25519"]),
    rewards=st.one_of(
        st.none(), st.builds(RewardSchedule, st.integers(0, 2**60), st.integers(0, 2**60))
    ),
    fork_win_extra=st.integers(0, 4),
    replay_check=st.booleans(),
)


@given(VALID_CONFIGS)
def test_every_valid_config_survives_a_json_round_trip(cfg):
    assert SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_a_partial_section_keeps_the_default_configs_values():
    default = SimConfig()
    assert SimConfig.from_dict({"latency": {}}).latency == default.latency == LatencySpec(1, 3)
    assert SimConfig.from_dict({"latency": {"lo": 2}}).latency == LatencySpec(2, 3)
    assert SimConfig.from_dict({"chain": {}}).chain == default.chain
    three = SimConfig.from_dict({"chain": {"witness_m": 3}}).chain
    assert three == replace(default.chain, witness_m=3)
    # with no default section, the class's own defaults fill it
    assert SimConfig.from_dict({"rewards": {}}).rewards == RewardSchedule()


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(SimConfigError) as err:
        SimConfig.from_dict({"bogus_key": 1})
    assert err.value.key == "bogus_key"
    # configs written before the delivery trace was deleted still carry it
    with pytest.raises(SimConfigError, match="unknown config key") as err:
        SimConfig.from_dict({"trace": False})
    assert err.value.key == "trace"


def test_from_dict_fills_sim_threshold_when_missing():
    cfg = SimConfig.from_dict({"chain": {"witness_m": 3}})
    assert cfg.chain.witness_threshold == SIM_WITNESS_THRESHOLD
    assert cfg.chain.witness_m == 3
    # a 256-bit field reads hex or an integer
    for threshold in ("ff", 255):
        explicit = SimConfig.from_dict({"chain": {"witness_threshold": threshold}})
        assert explicit.chain.witness_threshold == 255


def test_from_dict_parse_errors_name_their_section():
    cases = [
        ({"adversary_strategy": "griefing"}, "adversary_strategy"),
        ({"tx_model": "banknotes"}, "tx_model"),
        ({"rewards": {"proposer_reward": -1}}, "rewards"),
        ({"latency": {"kind": "uniform", "lo": 1, "hi": 3}}, "latency.kind"),
        ({"latency": {"tick": 4}}, "latency.tick"),
        ({"latency": {"lo": "1", "hi": 3}}, "latency.lo"),
        ({"latency": 5}, "latency"),
        ({"latency": None}, "latency"),
        # simulator constants, not settings
        ({"mempool_cap": 4096}, "mempool_cap"),
        ({"slot_spacing": 3}, "slot_spacing"),
        ({"rewards": {"proposer_rewrd": 50}}, "rewards.proposer_rewrd"),
        ({"rewards": {"witness_subsidy": 1.5}}, "rewards.witness_subsidy"),
        ({"chain": {"witness_mm": 3}}, "chain.witness_mm"),
        ({"chain": {"witness_threshold": "zz"}}, "chain.witness_threshold"),
        ({"chain": ["tx_count_min", 4]}, "chain"),
        ({"n_nodes": "20"}, "n_nodes"),
        ({"n_nodes": 20.0}, "n_nodes"),
        # only a field declared for 256-bit values is read from hex
        ({"seed": "ff"}, "seed"),
        ({"replay_check": 1}, "replay_check"),
        ({"delivery_ratio": "0.9"}, "delivery_ratio"),
    ]
    for data, key in cases:
        with pytest.raises(SimConfigError) as err:
            SimConfig.from_dict(data)
        assert err.value.key == key, data
    # JSON has one number type: an integer is a valid float field
    assert SimConfig.from_dict({"delivery_ratio": 1}).delivery_ratio == 1.0


def test_cli_rejects_malformed_config_with_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for data, key in [({"latency": 5}, "latency"), ({"max_block_txs": 12}, "max_block_txs")]:
        path.write_text(json.dumps(data))
        assert cli_main(["simulate", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err


def test_tx_rate_must_be_finite():
    for rate in (math.inf, math.nan):
        with pytest.raises(SimConfigError) as err:
            SimConfig(tx_rate=rate)
        assert err.value.key == "tx_rate"
    # JSON's Infinity and NaN decode as floats, so from_dict must refuse them too
    for text in ('{"tx_rate": Infinity}', '{"tx_rate": NaN}'):
        with pytest.raises(SimConfigError) as err:
            SimConfig.from_dict(json.loads(text))
        assert err.value.key == "tx_rate"


def test_queued_events_counts_what_run_queues_first(monkeypatch):
    for rate in (2.0, 1.5):
        cfg = replace(SMALL, duration=31, tx_rate=rate)
        sim = Simulator(cfg)
        # a budget of 0 stops the run at its first event, with all it queued left
        with monkeypatch.context() as patch, pytest.raises(RuntimeError):
            patch.setattr(simnet, "EVENT_BUDGET", 0)
            sim.run()
        queued = sum(map(len, sim._queue.values()))
        if rate == int(rate):
            assert simnet.queued_events(cfg) == queued
        else:  # a fractional injection is drawn at random, so the count is a floor
            assert simnet.queued_events(cfg) < queued


def test_a_run_that_queues_past_the_event_budget_is_refused():
    at_budget = SimConfig(duration=3 * (simnet.EVENT_BUDGET // 7), tx_rate=2.0)
    assert simnet.queued_events(at_budget) <= simnet.EVENT_BUDGET
    over = {**at_budget.to_dict(), "duration": at_budget.duration + 3}
    assert simnet.queued_events(SimpleNamespace(**over)) > simnet.EVENT_BUDGET
    with pytest.raises(SimConfigError) as err:
        replace(at_budget, duration=over["duration"])
    assert err.value.key == "duration"
    with pytest.raises(SimConfigError) as err:
        SimConfig.from_dict(over)
    assert err.value.key == "duration"


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"tx_rate": Infinity}', "tx_rate"),
        ('{"tx_rate": NaN}', "tx_rate"),
        ('{"duration": 2000000, "tx_rate": 3}', "duration"),
    ],
)
def test_cli_names_an_unrunnable_rate_or_duration(text, key, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli_main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")


def test_config_version_must_be_the_one_to_dict_writes():
    assert SimConfig.from_dict({"config_version": 1}) == SimConfig()
    assert SimConfig.from_dict({}) == SimConfig()
    for version in (2, "x", None, True, 1.0):
        with pytest.raises(SimConfigError) as err:
            SimConfig.from_dict({"config_version": version})
        assert err.value.key == "config_version"


def test_latency_spec_sampling():
    # send draws each delay itself, with the bits rng.randint(lo, hi) would
    # take after the loss draw, so a seed schedules the ticks it always did
    for lo, hi in [(0, 0), (1, 1), (1, 3), (0, 6), (2, 9)]:
        sim = Simulator(replace(SMALL, delivery_ratio=1.0, latency=LatencySpec(lo, hi)))
        for seed in range(4):
            sim.rng, sim._queue = random.Random(seed), defaultdict(list)
            for message in range(300):
                sim.send(0, 1, message)
            delay = {
                payload[2]: tick for tick, events in sim._queue.items() for _, payload in events
            }
            reference = random.Random(seed)
            expected = [(reference.random(), reference.randint(lo, hi))[1] for _ in range(300)]
            assert [delay[message] for message in range(300)] == expected
            assert sim.rng.getstate() == reference.getstate()
            assert set(expected) == set(range(lo, hi + 1))


# -- determinism ---------------------------------------------------------------------


def test_same_seed_same_report():
    cfg = replace(SMALL, n_nodes=12, duration=100, seed=7)
    first = run_simulation(cfg)
    second = run_simulation(cfg)
    assert first.to_json() == second.to_json()
    other = run_simulation(replace(cfg, seed=8))
    assert other.per_node_head != first.per_node_head


def test_report_echoes_config_and_serializes():
    report = run_simulation(SMALL)
    assert report.config == SMALL.to_dict()
    payload = json.loads(report.to_json())
    assert payload["seed"] == SMALL.seed
    assert payload["blocks_minted"] == report.blocks_minted


def test_every_delivery_went_through_send(monkeypatch):
    # the per-layer benchmark counts messages by wrapping Simulator.send;
    # without loss each of them must reach the event loop exactly once
    sent = Counter()
    send = Simulator.send

    def counted(self, sender, target, message):
        sent[type(message).__name__] += 1
        return send(self, sender, target, message)

    monkeypatch.setattr(Simulator, "send", counted)
    cfg = replace(
        SMALL,
        n_nodes=12,
        duration=90,
        delivery_ratio=1.0,
        latency=LatencySpec(0, 6),
        adversary_fraction=0.25,
        adversary_strategy=Strategy.EQUIVOCATE,
        seed=3,
    )
    _, deliveries = run_recorded(cfg)
    delivered = Counter(kind for _, kind, _, _ in deliveries)
    assert len(delivered) == 7  # every message type, pulls and fork wins too
    assert sent == delivered


# -- healthy runs ------------------------------------------------------------------------


def test_default_run_converges_cleanly():
    report = run_simulation(SimConfig())
    assert report.honest_nodes == 20
    assert report.blocks_minted > 10
    assert report.txs_confirmed > 50
    assert report.hard_forks == 0
    assert report.misled_events == 0
    assert report.confirmed_conflict_nodes == 0
    assert report.prefix_agreement
    assert 0 < report.min_confirmed_height <= report.max_height
    assert len(report.per_node_head) == 20


def test_fork_win_traffic_matches_switch_count():
    base = run_simulation(SimConfig(seed=3))
    assert base.switches > 0  # lossy uniform latency forces real races
    assert base.fork_win_msgs == base.switches
    extra = run_simulation(SimConfig(seed=3, fork_win_extra=2))
    assert extra.switches > 0
    assert extra.fork_win_msgs == 3 * extra.switches


def test_utxo_model_runs_clean():
    report = run_simulation(replace(SMALL, tx_model=TxModel.UTXO))
    assert report.blocks_minted > 0
    assert report.txs_confirmed > 0
    assert report.confirmed_conflict_nodes == 0
    assert report.prefix_agreement


def test_rewards_flow_through_mint_and_validation():
    report = run_simulation(replace(SMALL, rewards=RewardSchedule(50, 5)))
    assert report.blocks_minted > 0
    assert report.txs_confirmed > 0
    assert report.confirmed_conflict_nodes == 0


def test_ed25519_scheme_end_to_end():
    report = run_simulation(
        replace(SMALL, n_nodes=6, duration=30, scheme="ed25519", seed=2)
    )
    assert report.blocks_minted > 0
    assert report.confirmed_conflict_nodes == 0


def test_honest_ed25519_run_signs_only_what_it_reads(monkeypatch):
    signs = []
    plain = Ed25519Scheme.sign

    def counted(self, secret, message):
        signs.append(message)
        return plain(self, secret, message)

    monkeypatch.setattr(Ed25519Scheme, "sign", counted)
    cfg = replace(
        SMALL, n_nodes=6, duration=30, scheme="ed25519", seed=2, tx_model=TxModel.UTXO
    )
    report = run_simulation(cfg)
    assert report.blocks_minted > 0
    # one sign per wallet payment and one per endorsement a certificate
    # holds; the endorsements nobody reads are never signed
    minted = cfg.chain.witness_m * report.blocks_minted
    assert len(signs) == report.txs_injected + minted


# -- signature checks kept on the objects they check ------------------------------------


def count_verifies(monkeypatch, cls):
    """Route cls.verify through a recorder; returns its (triple, result) list."""
    calls = []
    plain = cls.verify

    def recorded(self, public, message, signature):
        ok = plain(self, public, message, signature)
        calls.append(((public.public_key, message, signature), ok))
        return ok

    monkeypatch.setattr(cls, "verify", recorded)
    return calls


def test_each_signature_is_verified_once_per_run(monkeypatch):
    calls = count_verifies(monkeypatch, Ed25519Scheme)
    cfg = replace(
        SMALL,
        n_nodes=6,
        duration=30,
        scheme="ed25519",
        seed=2,
        tx_model=TxModel.UTXO,
        rewards=RewardSchedule(50, 10),
    )
    sim = Simulator(cfg)
    assert sim.run().blocks_minted > 0
    # every node holds the same transaction and block objects, so the first
    # check of a signature marks it for all of them
    triples = [triple for triple, _ in calls]
    assert len(triples) == len(set(triples)) > 0


def test_get_scheme_stays_uncached(monkeypatch):
    calls = count_verifies(monkeypatch, HashStubScheme)
    plain = get_scheme("stub")
    assert type(plain) is HashStubScheme
    assert Simulator(SMALL).scheme is plain
    secret, node_id = plain.keypair(b"memo")
    signature = plain.sign(secret, b"payload")
    assert plain.verify(node_id, b"payload", signature)
    assert plain.verify(node_id, b"payload", signature)
    assert len(calls) == 2


def stub_parties(n=4):
    return [STUB.keypair(b"slot" + bytes([i])) for i in range(n)]


def payment(parties, index, nonce=0):
    secret, sender = parties[index]
    body = AccountBody(parties[(index + 1) % len(parties)][1], 1, nonce)
    return make_transaction(STUB, secret, sender, body)


def test_a_failed_signature_check_is_never_marked(monkeypatch):
    calls = count_verifies(monkeypatch, HashStubScheme)
    parties = stub_parties()
    indices = fund_accounts({nid: 10 for _, nid in parties})
    tx = payment(parties, 0)
    tampered = Transaction(tx.sender, tx.body, bytes([tx.signature[0] ^ 1]) + tx.signature[1:])
    for _ in range(2):
        assert indices.validate_tx(tampered, STUB) is TxReject.BAD_SIGNATURE
    assert len(calls) == 2 and tampered.verified_by is None
    assert indices.clone().validate_tx(tx, STUB) is None
    assert indices.clone().validate_tx(tx, STUB) is None
    assert len(calls) == 3 and tx.verified_by is STUB


class CountingVerifier(SignatureScheme):
    """The stub scheme under another identity, counting its verify calls."""

    name = "stub"

    def __init__(self):
        self.verifies = 0

    def keypair(self, seed):
        return STUB.keypair(seed)

    def sign(self, secret, message):
        return STUB.sign(secret, message)

    def verify(self, public, message, signature):
        self.verifies += 1
        return STUB.verify(public, message, signature)


def test_a_mark_answers_only_its_own_scheme():
    parties = stub_parties()
    indices = fund_accounts({nid: 10 for _, nid in parties})
    tx = payment(parties, 0)
    assert indices.clone().validate_tx(tx, STUB) is None
    assert tx.verified_by is STUB
    other = CountingVerifier()
    assert indices.clone().validate_tx(tx, other) is None
    assert other.verifies == 1 and tx.verified_by is other


def test_a_decoded_transaction_starts_unverified():
    parties = stub_parties()
    tx = payment(parties, 0)
    assert fund_accounts({nid: 10 for _, nid in parties}).validate_tx(tx, STUB) is None
    assert tx.verified_by is STUB
    decoded = deserialize_transaction(tx.canonical_bytes)
    assert decoded == tx and decoded.verified_by is None


@pytest.mark.parametrize("rewards", [False, True], ids=["certified", "coinbase"])
def test_only_the_minted_object_skips_its_certificate_check(monkeypatch, rewards):
    calls = count_verifies(monkeypatch, HashStubScheme)
    cfg = ChainConfig()
    parties = stub_parties()
    funded = fund_accounts({nid: 10 for _, nid in parties})
    rule = make_coinbase_rule(RewardSchedule(50, 10), TxModel.ACCOUNT) if rewards else None

    def fresh():
        return ChainState(cfg, STUB, funded, coinbase_rule=rule)

    txs = [payment(parties, i) for i in range(len(parties))]
    candidate = propose_block(parties[0][1], fresh(), txs, cfg)
    assert candidate is not None and candidate.certified_by is None
    sigs = [endorse(STUB, secret, wid, candidate) for secret, wid in parties[1:]]
    block = mint_block(candidate, sigs, cfg, STUB, coinbase_rule=rule)
    assert block is not None and block.certified_by is STUB
    assert certify(block, block.witness_sigs).certified_by is None
    message = enc_u256(candidate.block_hash)

    def certificate_checks():
        return sum(triple[1] == message for triple, _ in calls)

    before = certificate_checks()
    assert fresh().apply_block(block).stored
    assert certificate_checks() == before
    decoded = deserialize_block(serialize_block(block))
    assert decoded == block and decoded.certified_by is None
    assert fresh().apply_block(decoded).stored
    assert certificate_checks() == before + cfg.witness_m


# -- the shared stores' height horizon --------------------------------------------------------


def shared_store_sizes(cfg: SimConfig) -> tuple[list[int], int]:
    """Entries of the two stores a run's nodes share, after the run, and
    the bytes a deep copy of both takes (tracemalloc)."""
    sim = Simulator(cfg)
    sim.run()
    stores = (sim.snapshot_store, sim.verdict_cache)
    tracemalloc.start()
    try:
        copies = copy.deepcopy(stores)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return [len(store) for store in copies], held


@pytest.mark.parametrize("strategy", [Strategy.NONE, Strategy.EQUIVOCATE], ids=lambda s: s.value)
def test_shared_stores_do_not_grow_with_height(strategy):
    cfg = SimConfig(seed=3)
    if strategy is not Strategy.NONE:
        cfg = replace(cfg, n_nodes=12, adversary_fraction=0.25, adversary_strategy=strategy)
    short_entries, short_bytes = shared_store_sizes(replace(cfg, duration=1000))
    long_entries, long_bytes = shared_store_sizes(replace(cfg, duration=6000))
    # six times the ticks, about six times the height. Kept whole, the default
    # run's stores held 332 and 495 entries at 1000 ticks and 1,998 and 2,946
    # at 6000; here the long run adds one checkpoint snapshot per 256
    # heights, and what the band above the horizon holds varies
    for short, long in zip(short_entries, long_entries):
        assert long <= short + 16
    assert long_bytes <= 1.5 * short_bytes


@pytest.mark.parametrize("strategy", [Strategy.NONE, Strategy.EQUIVOCATE], ids=lambda s: s.value)
def test_every_shared_entry_is_filed_at_a_height(strategy):
    cfg = SimConfig()
    if strategy is not Strategy.NONE:
        cfg = replace(cfg, n_nodes=12, adversary_fraction=0.25, adversary_strategy=strategy)
    sim = Simulator(cfg)
    assert sim.run().blocks_minted > 0
    for store in (sim.snapshot_store, sim.verdict_cache):
        assert store._filed.keys() == store.keys()


def test_a_rebuild_replays_only_the_blocks_above_the_last_checkpoint(monkeypatch):
    monkeypatch.setattr(ledger, "CHECKPOINT_SPACING", 8)
    sim = Simulator(replace(SMALL, duration=120))
    sim.run()
    replayed = []
    apply_tx = ledger.TxIndices.apply_tx
    monkeypatch.setattr(
        ledger.TxIndices, "apply_tx", lambda indices, tx: replayed.append(tx) or apply_tx(indices, tx)
    )
    for node in sim.nodes:
        state = node.state
        assert state.height >= 8
        sim.snapshot_store.drop_below(state.height + 1)
        replayed.clear()
        head = state.head_indices()
        last = state.height - state.height % 8
        above = [state.blocks[h] for h in state.main_by_height[last + 1 :]]
        assert replayed == [tx for block in above for tx in block.transactions]
        assert head == state.replay_from_genesis()


# each shape's run checks the replay oracle on every switch, and
# run_and_replay checks every node's head state once more after the run
MISS_SHAPES = {
    "lossy": SimConfig(replay_check=True, delivery_ratio=0.6, latency=LatencySpec(1, 6)),
    "long": SimConfig(replay_check=True, duration=1200),
    "account_rewards": SimConfig(replay_check=True, rewards=RewardSchedule(50, 5)),
    "utxo_rewards": SimConfig(
        replay_check=True, tx_model=TxModel.UTXO, rewards=RewardSchedule(50, 5)
    ),
    "equivocate": SimConfig(
        replay_check=True,
        n_nodes=12,
        adversary_fraction=0.25,
        adversary_strategy=Strategy.EQUIVOCATE,
    ),
    "invalid_push": SimConfig(
        replay_check=True,
        n_nodes=12,
        adversary_fraction=0.25,
        adversary_strategy=Strategy.INVALID_BLOCK_PUSH,
    ),
}


def run_and_replay(cfg: SimConfig) -> str:
    """A run's report, once every node's head state matches its replay."""
    sim = Simulator(cfg)
    report = sim.run().to_json()
    for node in sim.nodes:
        node.state.assert_replay_matches()
    return report


@pytest.mark.parametrize("name", sorted(MISS_SHAPES))
def test_dropped_entries_cost_work_never_an_answer(name, monkeypatch):
    cfg = MISS_SHAPES[name]
    monkeypatch.setattr(simnet, "HORIZON_SLACK", 10**9)  # the horizon never rises
    unbounded = run_and_replay(cfg)
    # the horizon above every head and no checkpoint but genesis: each entry
    # is dropped at the end of the tick that filed it
    monkeypatch.setattr(simnet, "HORIZON_SLACK", -(10**9))
    monkeypatch.setattr(ledger, "CHECKPOINT_SPACING", 10**9)
    rebuilt = []
    rebuild = ChainState._rebuild_snapshot

    def counted(state, block_hash):
        rebuilt.append(block_hash)
        return rebuild(state, block_hash)

    monkeypatch.setattr(ChainState, "_rebuild_snapshot", counted)
    assert run_and_replay(cfg) == unbounded
    assert rebuilt


def test_seeded_runs_never_rebuild_a_snapshot(monkeypatch):
    """Every snapshot a run reads is still in the store or a checkpoint.

    _rebuild_snapshot replays blocks for an entry the horizon dropped with
    no checkpoint to fall back on; none of these seeded runs takes it.
    """
    rebuilt = []
    rebuild = ChainState._rebuild_snapshot

    def counted(state, block_hash):
        rebuilt.append(block_hash)
        return rebuild(state, block_hash)

    monkeypatch.setattr(ChainState, "_rebuild_snapshot", counted)
    base = SimConfig(seed=3)
    configs = [
        replace(base, duration=1000),
        replace(base, duration=6000),
        replace(base, delivery_ratio=0.5, duration=2000),
        replace(base, n_nodes=100, duration=200),
    ]
    adversaries = dict(adversary_fraction=0.25)
    for seed in (1, 2):
        shape = replace(base, seed=seed, duration=3000)
        configs += [
            replace(shape, delivery_ratio=0.3),
            replace(shape, delivery_ratio=0.5, latency=LatencySpec(0, 12)),
            replace(shape, **adversaries, adversary_strategy=Strategy.EQUIVOCATE),
            replace(
                shape,
                **adversaries,
                adversary_strategy=Strategy.DOUBLE_SPEND,
                tx_model=TxModel.UTXO,
            ),
            replace(
                shape,
                **adversaries,
                adversary_strategy=Strategy.INVALID_BLOCK_PUSH,
                delivery_ratio=0.5,
            ),
        ]
        configs.append(
            replace(
                base,
                seed=seed,
                n_nodes=50,
                delivery_ratio=0.4,
                latency=LatencySpec(1, 20),
                duration=2000,
            )
        )
    assert len(configs) == 16
    for cfg in configs:
        run_simulation(cfg)
    assert rebuilt == []


def test_propose_slot_drops_a_forged_payment():
    sim = Simulator(SMALL)
    node = sim.nodes[0]
    honest = node.build_payment()
    forged = Transaction(honest.sender, honest.body, bytes(32))
    node.accept_tx(forged)
    node.on_propose_slot()  # too few valid entries to propose
    assert node.pending is None
    assert forged.tx_id not in node.mempool


def test_replay_checked_run_stays_consistent():
    report = run_simulation(replace(SMALL, replay_check=True, seed=13))
    assert report.blocks_minted > 0  # every switch re-verified against replay


# -- adversary strategies --------------------------------------------------------------------


def test_double_spend_never_splits_confirmations():
    for model in (TxModel.ACCOUNT, TxModel.UTXO):
        report = run_simulation(
            replace(
                SMALL,
                n_nodes=12,
                adversary_fraction=0.25,
                adversary_strategy=Strategy.DOUBLE_SPEND,
                tx_model=model,
                seed=21,
            )
        )
        assert report.blocks_minted > 0
        assert report.confirmed_conflict_nodes == 0
        assert report.prefix_agreement


def test_equivocating_proposers_cannot_corrupt_prefixes():
    report = run_simulation(
        replace(
            SMALL,
            n_nodes=12,
            adversary_fraction=0.25,
            adversary_strategy=Strategy.EQUIVOCATE,
            seed=22,
        )
    )
    assert report.blocks_minted > 0
    assert report.confirmed_conflict_nodes == 0
    assert report.prefix_agreement


def test_invalid_blocks_never_reach_honest_prefixes():
    report = run_simulation(
        replace(
            SMALL,
            n_nodes=12,
            adversary_fraction=0.25,
            adversary_strategy=Strategy.INVALID_BLOCK_PUSH,
            seed=23,
        )
    )
    assert report.blocks_minted > 0
    assert report.confirmed_conflict_nodes == 0
    assert report.misled_events == 0
    assert report.prefix_agreement


# -- trial batches -----------------------------------------------------------------------------


def test_run_trials_aggregates_counters():
    cfg = replace(SMALL, n_nodes=8, duration=60)
    result = run_trials(cfg, trials=4)
    assert result.trials == 4
    assert [row["seed"] for row in result.rows] == [5, 6, 7, 8]
    for name in ("blocks_minted", "switches", "hard_forks"):
        assert result.totals[name] == sum(row[name] for row in result.rows)
        assert result.means[name] == result.totals[name] / 4
        assert result.mins[name] <= result.maxs[name]
    lo, hi = result.hard_fork_ci
    assert 0.0 <= lo <= hi <= 1.0
    assert result.honest_node_runs == 4 * 8
    assert "blocks_minted=" in result.summary_line()
    with pytest.raises(SimConfigError):
        run_trials(cfg, trials=0)


def test_trials_without_an_honest_node_report_no_misled_interval():
    cfg = replace(SMALL, n_nodes=6, duration=30, adversary_fraction=1.0)
    result = run_trials(cfg, trials=2)
    assert result.honest_node_runs == 0
    assert result.totals["misled_events"] == 0
    assert result.misled_ci is None
    assert json.loads(result.to_json())["misled_ci"] is None


def test_parallel_trials_match_serial():
    cfg = replace(SMALL, n_nodes=8, duration=60)
    serial = run_trials(cfg, trials=4, jobs=1)
    parallel = run_trials(cfg, trials=4, jobs=2)
    assert parallel.rows == serial.rows
    assert parallel.totals == serial.totals


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records what a batch asks for and
    runs the work in this process, so no worker is ever started."""

    requests: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        _RecordingPool.requests.append((self.max_workers, chunksize, len(items)))
        return map(fn, items)


def test_trials_start_no_more_workers_than_trials(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "requests", [])
    cfg = replace(SMALL, n_nodes=8, duration=20)
    result = run_trials(cfg, trials=8, jobs=10_000)
    assert [row["seed"] for row in result.rows] == list(range(5, 13))
    run_trials(cfg, trials=5, jobs=2)  # two workers, one contiguous chunk each
    run_trials(cfg, trials=1, jobs=4)  # one trial runs in this process
    assert _RecordingPool.requests == [(8, 1, 8), (2, 3, 5)]
    for jobs in (0, -1):
        with pytest.raises(SimConfigError, match="^jobs:"):
            run_trials(cfg, trials=2, jobs=jobs)
    assert cli_main(["trials", "--trials", "2", "--jobs", "0"]) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["simulate"],
        ["trials", "--trials", "1"],
        ["miss-model", "--trials", "10"],
        ["corruption", "--attempts", "10"],
        ["misled-sweep"],
        ["chain-scale"],
        ["reproduce"],
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("under_a_file", [False, True])
def test_out_that_cannot_be_a_directory_exits_2(command, under_a_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file")
    out = taken / "sub" if under_a_file else taken
    assert cli_main([*command, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: out:")
    assert taken.read_text() == "a file"


def test_trials_csv_layout(tmp_path):
    cfg = replace(SMALL, n_nodes=8, duration=60)
    result = run_trials(cfg, trials=3)
    path = str(tmp_path / "trials.csv")
    write_csv(result.rows, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["seed", *simnet.COUNTER_FIELDS]
        read = list(reader)
    assert len(read) == 3
    assert read == [{key: str(value) for key, value in row.items()} for row in result.rows]
    assert read[0]["seed"] == "5"


def test_reproduce_writes_every_table_and_a_checklist_of_checks(tmp_path, capsys):
    assert cli_main(["reproduce", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("[")] == [
        f"[PASS] {name}"
        for name in (
            "headline_log10",
            "chain_scale_bounds",
            "sweep_monotone",
            "corruption_mc",
            "miss_model_mc",
        )
    ]
    for name, rows in (
        ("chain_scale.csv", chain_scale_rows()),
        ("misled_sweep.csv", misled_grid(n_c=3)),
    ):
        with open(tmp_path / name, newline="") as fh:
            read = list(csv.DictReader(fh))
        assert read == [{f.name: str(getattr(row, f.name)) for f in fields(row)} for row in rows]
    checklist = json.loads((tmp_path / "checklist.json").read_text())
    keys = [f.name for f in fields(Check)]
    assert keys == ["name", "ok", "value", "expected", "z"]
    assert all(sorted(entry) == sorted(keys) for entry in checklist)
    by_name = {entry["name"]: entry for entry in checklist}
    assert by_name["chain_scale_bounds"]["value"] == chain_scale_bounds_ok()
    assert by_name["headline_log10"]["expected"] == -54.0
    assert all(entry["ok"] for entry in checklist)


def test_simulate_reruns_from_its_written_config(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli_main(["simulate", "--seed", "7", "--out", str(first)]) == 0
    config = str(first / "config.json")
    assert cli_main(["simulate", "--config", config, "--out", str(second)]) == 0
    capsys.readouterr()
    assert (second / "report.json").read_bytes() == (first / "report.json").read_bytes()
    assert json.loads((first / "report.json").read_text())["seed"] == 7


def test_trials_command_writes_its_result(tmp_path, capsys):
    argv = ["trials", "--trials", "2", "--seed", "5", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    assert "trials=2" in capsys.readouterr().out
    payload = json.loads((tmp_path / "trials.json").read_text())
    assert sorted(payload) == [
        "base_seed",
        "hard_fork_ci",
        "hard_fork_runs",
        "honest_node_runs",
        "maxs",
        "means",
        "mins",
        "misled_ci",
        "rows",
        "totals",
        "trials",
    ]
    assert (payload["trials"], payload["base_seed"]) == (2, 5)
    assert [row["seed"] for row in payload["rows"]] == [5, 6]
    assert payload["honest_node_runs"] == 2 * SimConfig().n_nodes


# -- miss-model Monte Carlo ----------------------------------------------------------------------


def test_miss_model_tracks_formula():
    params = SafetyParams(m=1, n_c=1, l=0, r=0.2)
    result = run_miss_model(params, trials=50_000, seed=3)
    assert result.exponent == 16
    assert result.trials == 50_000
    assert result.frequency == pytest.approx(0.8**16, abs=4 * 7.4e-4)  # 4 sigma


def test_miss_model_lossless_edge():
    result = run_miss_model(SafetyParams(m=2, n_c=2, r=1.0), trials=1000)
    assert result.misled == 0
    assert result.frequency == 0.0
    with pytest.raises(ValueError):
        run_miss_model(SafetyParams(m=1, n_c=1), trials=0)


def test_miss_model_command_writes_its_result(tmp_path, capsys):
    assert cli_main(["miss-model", "--trials", "20000", "--out", str(tmp_path)]) == 0
    assert "K=16" in capsys.readouterr().out
    payload = json.loads((tmp_path / "miss_model.json").read_text())
    assert sorted(payload) == [
        "analytic",
        "exponent",
        "frequency",
        "l",
        "m",
        "misled",
        "n_c",
        "r",
        "trials",
    ]
    assert payload["exponent"] == 16
    assert payload["trials"] == 20_000
    assert payload["frequency"] == payload["misled"] / 20_000
    p = payload["analytic"]
    assert p == pytest.approx(0.8**16)
    assert abs(payload["frequency"] - p) <= 4 * math.sqrt(p * (1 - p) / 20_000)


def test_three_sigma_check_at_a_certain_outcome_needs_exact_agreement():
    # sigma is 0 when the analytic value is 0 or 1, so no margin exists
    assert _three_sigma_ok(0.0, 0, 1000) == (True, 0.0)
    assert _three_sigma_ok(1.0, 1000, 1000) == (True, 0.0)
    assert _three_sigma_ok(0.0, 1, 1000) == (False, math.inf)
    assert _three_sigma_ok(1.0, 999, 1000) == (False, -math.inf)
    assert _three_sigma_ok(0.25, 250, 1000) == (True, 0.0)
    ok, z = _three_sigma_ok(0.25, 300, 1000)
    assert not ok and z == pytest.approx(0.05 / math.sqrt(0.25 * 0.75 / 1000))


# -- witness-corruption Monte Carlo ------------------------------------------------------------------


def test_corruption_edges():
    clean = witness_corruption_trials(500, q=0.0, m=2, n_keys=40, seed=1)
    assert clean.witnessed == 0
    assert clean.analytic == 0.0
    total = witness_corruption_trials(500, q=1.0, m=2, n_keys=40, seed=1)
    assert total.witnessed == 500
    assert total.adversarial_slot_rate == 1.0
    assert total.analytic == 1.0


def test_corruption_mid_q_matches_q_to_the_m():
    result = witness_corruption_trials(3000, q=0.5, m=2, n_keys=60, seed=2)
    assert result.analytic == 0.25
    assert result.witnessed_rate == pytest.approx(0.25, abs=4 * 0.0079)  # 4 sigma
    assert result.adversarial_slot_rate == pytest.approx(0.5, abs=0.03)


def test_corruption_trials_repeat_per_seed():
    result = witness_corruption_trials(400, q=0.5, m=2, n_keys=60, seed=3)
    # pinned when every endorsement was signed as it was made
    assert (result.witnessed, result.adversarial_slot_rate) == (92, 0.50375)
    assert witness_corruption_trials(400, q=0.5, m=2, n_keys=60, seed=3) == result


def test_corruption_command_writes_its_result(tmp_path, capsys):
    argv = ["corruption", "--attempts", "400", "--m", "2", "--keys", "60", "--seed", "3"]
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    assert "q=0.5 m=2" in capsys.readouterr().out
    payload = json.loads((tmp_path / "corruption.json").read_text())
    assert sorted(payload) == [
        "adversarial_slot_rate",
        "analytic",
        "attempts",
        "m",
        "n_keys",
        "q",
        "witnessed",
        "witnessed_rate",
    ]
    assert (payload["q"], payload["m"], payload["n_keys"]) == (0.5, 2, 60)
    assert payload["attempts"] == 400
    assert payload["analytic"] == 0.25
    # the seeded trial pinned by test_corruption_trials_repeat_per_seed
    assert payload["witnessed"] == 92
    assert payload["witnessed_rate"] == 92 / 400
    assert payload["adversarial_slot_rate"] == 0.50375


def test_corruption_argument_checks():
    with pytest.raises(ValueError):
        witness_corruption_trials(0, q=0.5, m=2)
    with pytest.raises(ValueError):
        witness_corruption_trials(10, q=0.5, m=0)
    with pytest.raises(ValueError):
        witness_corruption_trials(10, q=0.5, m=9, n_keys=10)
    # q is a probability: outside [0, 1] there is no analytic bound
    for q in (1.5, -0.5):
        with pytest.raises(ValueError):
            witness_corruption_trials(10, q=q, m=2)
        assert cli_main(["corruption", f"--q={q}", "--m=2", "--attempts=10"]) == 2
