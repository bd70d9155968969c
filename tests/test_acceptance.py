"""Acceptance gate: ten protocol-level checks at their stated tolerances.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s or on
failure) and enforces its runtime budget. The thousand-run safety batch is
shared between the two criteria that need it.
"""

import math
import random
import time
from dataclasses import replace

from scorechain.analysis import (
    SafetyParams,
    chain_scale_bounds_ok,
    chain_scale_rows,
    log10_pr_misled,
    misled_grid,
)
from scorechain.core_types import (
    AccountBody,
    Block,
    ChainConfig,
    TxModel,
    enc_u256,
    get_scheme,
    make_transaction,
)
from scorechain.ledger import ChainState, fund_accounts
from scorechain.simnet import (
    SimConfig,
    Strategy,
    run_miss_model,
    run_simulation,
    witness_corruption_trials,
)
from scorechain.witness import Refusal, mint_block, propose_block, sign_witness

STUB = get_scheme("stub")
CFG = ChainConfig()


def _line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} {label}: {detail}", flush=True)


def keys(n, tag=b"acc"):
    return [STUB.keypair(tag + bytes([i])) for i in range(n)]


def payments(parties, count, nonce=0):
    txs = []
    for i in range(count):
        secret, sender = parties[i % len(parties)]
        recipient = parties[(i + 1) % len(parties)][1]
        txs.append(
            make_transaction(
                STUB, secret, sender, AccountBody(recipient, 1, nonce + i // len(parties))
            )
        )
    return txs


def minted(parent_hash, height, txs, parties, proposer_idx=0):
    _, proposer = parties[proposer_idx]
    bare = Block(parent_hash, height, proposer, tuple(txs))
    message = enc_u256(bare.block_hash)
    sigs = []
    for secret, nid in parties:
        if nid == proposer:
            continue
        sigs.append((nid, STUB.sign(secret, message)))
        if len(sigs) == CFG.witness_m:
            break
    return replace(bare, witness_sigs=tuple(sigs))


# -- criteria 1-3: closed-form ----------------------------------------------------


def test_c01_headline_misled_probability():
    start = time.monotonic()
    value = log10_pr_misled(SafetyParams(m=2, n_c=2, l=0, r=0.9))
    elapsed = time.monotonic() - start
    ok = abs(value + 54.0) < 1e-9
    _line(1, "headline misled probability", ok, f"log10={value:.12f} ({elapsed:.3f}s)")
    assert ok
    assert elapsed < 1.0


def test_c02_chain_scale_bounds():
    start = time.monotonic()
    rows = {row.name: row for row in chain_scale_rows()}
    checks = {
        "bitcoin": (-47.0, 47.0),
        "ethereum": (-45.0, 37.0),
        "solana": (-44.0, 35.0),
    }
    ok = True
    for name, (p_bound, years_bound) in checks.items():
        row = rows[name]
        ok = ok and row.chain_log10_p < p_bound and row.expected_years_log10 > years_bound
    ok = ok and all(chain_scale_bounds_ok().values())
    elapsed = time.monotonic() - start
    detail = ", ".join(f"{n}={rows[n].chain_log10_p:.2f}" for n in checks)
    _line(2, "chain-scale probability bounds", ok, f"{detail} ({elapsed:.3f}s)")
    assert ok
    assert elapsed < 1.0


def test_c03_sweep_strictly_monotone():
    start = time.monotonic()
    rows = misled_grid(n_c=3)
    r_values = sorted({row.r for row in rows})
    m_values = sorted({row.m for row in rows})
    ok = r_values == [0.6, 0.7, 0.8, 0.9] and m_values == [1, 2, 3, 4, 5, 6]
    for r in r_values:
        col = [row.log10_pr for row in rows if row.r == r]
        ok = ok and all(a > b for a, b in zip(col, col[1:]))
    for m in m_values:
        col = [row.log10_pr for row in rows if row.m == m]
        ok = ok and all(a > b for a, b in zip(col, col[1:]))
    elapsed = time.monotonic() - start
    _line(3, "misled sweep monotone in m and r", ok, f"{len(rows)} cells ({elapsed:.3f}s)")
    assert ok
    assert elapsed < 1.0


# -- criteria 4-5: Monte Carlo against the formulas ----------------------------------


def test_c04_witness_corruption_monte_carlo():
    start = time.monotonic()
    result = witness_corruption_trials(100_000, q=0.5, m=3, n_keys=200, seed=4)
    elapsed = time.monotonic() - start
    sigma = math.sqrt(0.125 * 0.875 / result.attempts)
    ok = abs(result.witnessed_rate - 0.125) <= 3 * sigma
    _line(
        4,
        "invalid-block witnessing at q=0.5, m=3",
        ok,
        f"rate={result.witnessed_rate:.5f} vs 0.125, 3sigma={3 * sigma:.5f} ({elapsed:.1f}s)",
    )
    assert ok
    assert elapsed < 30.0


def test_c05_miss_model_monte_carlo():
    start = time.monotonic()
    base = SafetyParams(m=1, n_c=1, l=0, r=0.2)
    p16 = 0.8**16
    run16 = run_miss_model(base, trials=1_000_000, seed=5)
    sigma16 = math.sqrt(p16 * (1.0 - p16) / run16.trials)
    ok = abs(run16.frequency - p16) <= 3 * sigma16

    # doubling the fork-win retransmissions multiplies the miss probability
    # by (1-r)^2; check the measured ratio with propagated uncertainty
    p18 = 0.8**18
    run18 = run_miss_model(replace(base, l=2), trials=1_000_000, seed=6)
    ratio = run18.frequency / run16.frequency
    rel16 = sigma16 / p16
    rel18 = math.sqrt(p18 * (1.0 - p18) / run18.trials) / p18
    sigma_ratio = 0.64 * math.sqrt(rel16**2 + rel18**2)
    ok = ok and abs(ratio - 0.64) <= 3 * sigma_ratio
    elapsed = time.monotonic() - start
    _line(
        5,
        "miss-model frequency and l-ratio",
        ok,
        f"freq={run16.frequency:.6f} vs {p16:.6f}, ratio={ratio:.4f} vs 0.64 ({elapsed:.1f}s)",
    )
    assert ok
    assert elapsed < 60.0


# -- criteria 6 and 9: the thousand-run safety batch -------------------------------------


_BATCH: dict = {}


def _safety_batch():
    # r=0.9, q=0, m=2, n_c=3, 20 nodes, 200 ticks are the SimConfig defaults;
    # replay_check re-verifies the tx indices after every fork switch inside
    # every run, which is exactly what criterion 9 asks for
    if not _BATCH:
        start = time.monotonic()
        reports = [
            run_simulation(SimConfig(seed=1000 + i, replay_check=True))
            for i in range(1000)
        ]
        _BATCH["reports"] = reports
        _BATCH["elapsed"] = time.monotonic() - start
    return _BATCH


def test_c06_no_hard_forks_no_misled_nodes():
    batch = _safety_batch()
    reports = batch["reports"]
    hard_forks = sum(r.hard_forks for r in reports)
    misled = sum(r.misled_events for r in reports)
    agreed = sum(1 for r in reports if r.prefix_agreement)
    minted_total = sum(r.blocks_minted for r in reports)
    ok = hard_forks == 0 and misled == 0 and agreed == len(reports) and minted_total > 0
    _line(
        6,
        "1000-run safety batch",
        ok,
        f"hard_forks={hard_forks} misled={misled} agreeing_runs={agreed}/1000 "
        f"minted={minted_total} ({batch['elapsed']:.1f}s)",
    )
    assert ok
    assert batch["elapsed"] < 300.0


def test_c09_replay_oracle_on_every_switch():
    batch = _safety_batch()
    switches = sum(r.switches for r in batch["reports"])
    # every one of those switches ran the incremental-vs-replay equality
    # check inside the ledger; a single mismatch would have aborted its run
    ok = switches > 0
    _line(9, "replay oracle across fork switches", ok, f"switches={switches} (within c06 budget)")
    assert ok


# -- criterion 7: double-spend prevention ---------------------------------------------------


def test_c07_double_spend_never_confirmed():
    start = time.monotonic()
    conflict_nodes = 0
    runs = 0
    for model, base_seed in ((TxModel.ACCOUNT, 41_000), (TxModel.UTXO, 42_000)):
        cfg = SimConfig(
            n_nodes=12,
            duration=120,
            tx_rate=1.0,
            adversary_fraction=0.25,
            adversary_strategy=Strategy.DOUBLE_SPEND,
            tx_model=model,
        )
        for i in range(100):
            report = run_simulation(replace(cfg, seed=base_seed + i))
            conflict_nodes += report.confirmed_conflict_nodes
            runs += 1
    elapsed = time.monotonic() - start
    ok = conflict_nodes == 0 and runs == 200
    _line(
        7,
        "double-spend trials, both value models",
        ok,
        f"conflicting_nodes={conflict_nodes} over {runs} runs ({elapsed:.1f}s)",
    )
    assert ok
    assert elapsed < 120.0


# -- criterion 8: fork-choice determinism ----------------------------------------------------


def test_c08_delivery_order_independence():
    start = time.monotonic()
    parties = keys(40)
    funding = {nid: 10**9 for _, nid in parties}
    mismatches = 0
    for set_idx in range(500):
        rng = random.Random(8000 + set_idx)
        builder = ChainState(CFG, STUB, fund_accounts(funding))
        blocks = []
        tips = [builder.genesis]
        for i in range(10):
            parent = rng.choice(tips[-3:])
            group = parties[4 * i : 4 * i + 4]
            block = minted(
                parent.block_hash,
                parent.height + 1,
                payments(group, rng.randint(4, 6)),
                parties,
                proposer_idx=rng.randrange(40),
            )
            if builder.apply_block(block).stored:
                blocks.append(block)
                tips.append(block)
        heads = []
        for _ in range(2):
            order = list(blocks)
            rng.shuffle(order)
            fresh = ChainState(CFG, STUB, fund_accounts(funding))
            for block in order:
                fresh.apply_block(block)
            heads.append(fresh.head.block_hash)
        if not (heads[0] == heads[1] == builder.head.block_hash):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0
    _line(
        8,
        "permuted delivery, identical heads",
        ok,
        f"mismatches={mismatches}/500 sets ({elapsed:.1f}s)",
    )
    assert ok
    assert elapsed < 60.0


# -- criterion 10: throughput floor (non-claim) ------------------------------------------------


def _pipeline_round(heights):
    """Full propose -> witness -> mint -> apply pipeline; returns blocks/s."""
    parties = keys(8, tag=b"bench")
    state = ChainState(CFG, STUB, fund_accounts({nid: 10**9 for _, nid in parties}))
    (w1_secret, w1), (w2_secret, w2) = parties[1], parties[2]
    senders = parties[3:7]
    tx_batches = [payments(senders, 4, nonce=h) for h in range(heights)]
    log1: dict = {}
    log2: dict = {}
    begin = time.monotonic()
    for h in range(heights):
        req = propose_block(parties[0][1], state, tx_batches[h], CFG)
        assert req is not None
        sig1 = sign_witness(w1_secret, w1, req, state, CFG, log1)
        sig2 = sign_witness(w2_secret, w2, req, state, CFG, log2)
        assert not isinstance(sig1, Refusal) and not isinstance(sig2, Refusal)
        block = mint_block(req, [sig1, sig2], CFG, STUB)
        assert block is not None
        assert state.apply_block(block).stored
    elapsed = time.monotonic() - begin
    assert state.height == heights
    return heights / elapsed


def test_c10_minting_pipeline_throughput():
    # a harness floor, not a protocol claim: the sim itself mints one block
    # per proposal slot by design, so the pipeline is measured directly
    start = time.monotonic()
    rate = max(_pipeline_round(5000) for _ in range(2))
    elapsed = time.monotonic() - start
    ok = rate >= 10_000.0
    _line(10, "mint pipeline throughput", ok, f"{rate:,.0f} blocks/s ({elapsed:.1f}s)")
    assert ok
