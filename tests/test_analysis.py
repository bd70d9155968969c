"""Closed-form safety math against hand-derived oracle values."""

import math

import pytest

from scorechain.analysis import (
    DEFAULT_M_VALUES,
    DEFAULT_R_VALUES,
    HEADLINE_PARAMS,
    REFERENCE_CHAINS,
    SafetyParams,
    chain_scale_bounds_ok,
    chain_scale_rows,
    log10_pr_misled,
    misled_exponent,
    misled_grid,
    pr_invalid_witnessed,
    pr_misled,
    wilson_interval,
    write_chain_scale_csv,
    write_misled_csv,
)


# -- the miss exponent -----------------------------------------------------------


def test_misled_exponent_oracles():
    # (m+1)(n_c+1)(m+n_c+2) + l, multiplied out by hand
    assert misled_exponent(1, 1) == 2 * 2 * 4 == 16
    assert misled_exponent(2, 2) == 3 * 3 * 6 == 54
    assert misled_exponent(2, 3) == 3 * 4 * 7 == 84
    assert misled_exponent(1, 1, 2) == 18
    assert misled_exponent(6, 3) == 7 * 4 * 11


def test_params_validation():
    with pytest.raises(ValueError):
        SafetyParams(m=0, n_c=1)
    with pytest.raises(ValueError):
        SafetyParams(m=1, n_c=0)
    with pytest.raises(ValueError):
        SafetyParams(m=1, n_c=1, l=-1)
    with pytest.raises(ValueError):
        SafetyParams(m=1, n_c=1, r=0.0)
    with pytest.raises(ValueError):
        SafetyParams(m=1, n_c=1, r=1.1)


# -- corruption bound ------------------------------------------------------------


def test_invalid_witnessed_is_q_to_the_m():
    assert pr_invalid_witnessed(0.0, 3) == 0.0
    assert pr_invalid_witnessed(1.0, 3) == 1.0
    assert pr_invalid_witnessed(0.5, 3) == pytest.approx(0.125, abs=1e-15)
    assert pr_invalid_witnessed(0.3, 2) == pytest.approx(0.09, abs=1e-12)
    for q in (1.5, -0.5):
        with pytest.raises(ValueError):
            pr_invalid_witnessed(q, 2)
    with pytest.raises(ValueError):
        pr_invalid_witnessed(0.5, 0)


# -- misled probability ------------------------------------------------------------


def test_headline_log10_is_exact():
    # 54 misses at r = 0.9: log10(0.1^54) = -54, no rounding involved
    assert log10_pr_misled(HEADLINE_PARAMS) == -54.0


def test_small_case_matches_direct_power():
    p = SafetyParams(m=1, n_c=1, l=0, r=0.2)
    assert pr_misled(p) == pytest.approx(0.8**16, rel=1e-12)
    assert pr_misled(p) == pytest.approx(0.028147497671065624, rel=1e-12)
    assert log10_pr_misled(p) == pytest.approx(16 * math.log10(0.8), rel=1e-12)


def test_lossless_network_never_misleads():
    p = SafetyParams(m=1, n_c=1, r=1.0)
    assert pr_misled(p) == 0.0
    assert log10_pr_misled(p) == float("-inf")


def test_retransmissions_tighten_the_bound():
    base = SafetyParams(m=2, n_c=2, l=0, r=0.9)
    extra = SafetyParams(m=2, n_c=2, l=2, r=0.9)
    assert log10_pr_misled(extra) == pytest.approx(-56.0, abs=1e-12)
    assert log10_pr_misled(extra) < log10_pr_misled(base)


# -- chain-scale projection ----------------------------------------------------------


def test_chain_scale_rows_frozen_values():
    rows = {row.name: row for row in chain_scale_rows()}
    assert set(rows) == {"bitcoin", "ethereum", "solana"}
    assert rows["bitcoin"].chain_log10_p == pytest.approx(-48.123904, abs=1e-6)
    assert rows["bitcoin"].expected_years_log10 == pytest.approx(49.270032, abs=1e-6)
    assert rows["ethereum"].chain_log10_p == pytest.approx(-46.811413, abs=1e-6)
    assert rows["ethereum"].expected_years_log10 == pytest.approx(47.656511, abs=1e-6)
    assert rows["solana"].chain_log10_p == pytest.approx(-45.828897, abs=1e-6)
    assert rows["solana"].expected_years_log10 == pytest.approx(46.430957, abs=1e-6)
    for row in rows.values():
        assert row.per_block_log10_p == -54.0
        assert row.chain_log10_p == pytest.approx(-54.0 + math.log10(row.height), abs=1e-12)


def test_chain_scale_bounds_all_pass():
    verdicts = chain_scale_bounds_ok()
    assert verdicts == {"bitcoin": True, "ethereum": True, "solana": True}


def test_chain_scale_skips_unknown_names():
    rows = chain_scale_rows(chains=REFERENCE_CHAINS + (("testnet", 100, 1.0),))
    verdicts = chain_scale_bounds_ok(rows)
    assert "testnet" not in verdicts
    assert len(verdicts) == 3


# -- sweep grid -------------------------------------------------------------------------


def test_grid_shape_and_strict_monotonicity():
    rows = misled_grid()
    assert len(rows) == len(DEFAULT_R_VALUES) * len(DEFAULT_M_VALUES)
    assert [row.r for row in rows[:6]] == [0.6] * 6  # row-major in r
    assert [row.m for row in rows[:6]] == list(DEFAULT_M_VALUES)

    by_r = {r: [row.log10_pr for row in rows if row.r == r] for r in DEFAULT_R_VALUES}
    for r, col in by_r.items():
        assert all(a > b for a, b in zip(col, col[1:])), f"not decreasing in m at r={r}"
    by_m = {m: [row.log10_pr for row in rows if row.m == m] for m in DEFAULT_M_VALUES}
    for m, col in by_m.items():
        assert all(a > b for a, b in zip(col, col[1:])), f"not decreasing in r at m={m}"


def test_grid_first_cell_oracle():
    rows = misled_grid()
    # m=1, n_c=3: K = 2*4*6 = 48; at r=0.6 that is 48*log10(0.4)
    assert rows[0].log10_pr == pytest.approx(-19.101120416257807, rel=1e-12)


def test_grid_rejects_empty_m_values():
    with pytest.raises(ValueError):
        misled_grid(m_values=())


# -- csv files ------------------------------------------------------------------------------


def test_misled_csv_layout(tmp_path):
    path = str(tmp_path / "sweep.csv")
    write_misled_csv(misled_grid(), path)
    lines = open(path).read().splitlines()
    assert lines[0] == "r,m,log10_pr"
    assert lines[1] == "0.6,1,-19.101120"
    assert len(lines) == 25


def test_chain_scale_csv_layout(tmp_path):
    path = str(tmp_path / "scale.csv")
    write_chain_scale_csv(chain_scale_rows(), path)
    lines = open(path).read().splitlines()
    assert lines[0] == "name,height,years,chain_log10_p,expected_years_log10,bound_ok"
    assert lines[1].startswith("bitcoin,751789,14.0,-48.123904,49.270032,")
    assert all(line.endswith("True") for line in lines[1:])


# -- statistics helpers -----------------------------------------------------------------------


def test_wilson_interval_oracle():
    lo, hi = wilson_interval(10, 100)
    assert lo == pytest.approx(0.05522854161313613, rel=1e-12)
    assert hi == pytest.approx(0.1743673043676654, rel=1e-12)


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0
    assert hi > 0.0
    lo, hi = wilson_interval(50, 50)
    assert hi <= 1.0
    assert lo < 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
