"""Closed-form safety probabilities and the reference datasets built on them.

Under lossy broadcast with per-recipient delivery probability r, an honest
node ends up on a dead branch (is "misled") only if it misses every one of
K = (m+1)(n_c+1)(m+n_c+2) + l protocol messages tied to a confirmation
window, where m is the witness count, n_c the confirmation depth, and l the
number of extra fork-win retransmissions. So Pr_misled = (1-r)^K. Witness
corruption is simpler: an invalid block needs all m sampled witnesses to be
adversarial, giving q^m at adversarial fraction q.

Everything here works in log10 space (the interesting values sit far below
double-precision underflow in linear space) and is pure: the Monte Carlo
counterparts live in simnet.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass


@dataclass(frozen=True, slots=True)
class SafetyParams:
    """The four knobs of the safety analysis.

    m: witness signatures per block (>= 1)
    n_c: confirmation depth in blocks (>= 1)
    l: extra fork-win retransmissions (>= 0)
    r: per-recipient delivery probability, 0 < r <= 1
    """

    m: int
    n_c: int
    l: int = 0
    r: float = 0.9

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n_c < 1:
            raise ValueError("n_c must be >= 1")
        if self.l < 0:
            raise ValueError("l must be >= 0")
        if not 0.0 < self.r <= 1.0:
            raise ValueError("r must be in (0, 1]")


def misled_exponent(m: int, n_c: int, l: int = 0) -> int:
    """Number of independent deliveries a node must miss to be misled."""
    return (m + 1) * (n_c + 1) * (m + n_c + 2) + l


def pr_invalid_witnessed(q: float, m: int) -> float:
    """Probability that all m sampled witnesses of an invalid block collude."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    return q**m


def log10_pr_misled(p: SafetyParams) -> float:
    """log10 of the misled probability; -inf at r = 1 (lossless network)."""
    if p.r == 1.0:
        return float("-inf")
    return misled_exponent(p.m, p.n_c, p.l) * math.log10(1.0 - p.r)


def pr_misled(p: SafetyParams) -> float:
    """Misled probability in linear space; underflows to 0.0 for large K."""
    if p.r == 1.0:
        return 0.0
    k = misled_exponent(p.m, p.n_c, p.l)
    return math.exp(k * math.log(1.0 - p.r))


# ---------------------------------------------------------------------------
# chain-scale projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChainScaleRow:
    """Misled risk accumulated over a real chain's lifetime of blocks.

    chain_log10_p bounds the probability that any of `height` blocks ever
    misleads a node (union bound: height times the per-block probability);
    expected_years_log10 is the log of the expected years until one such
    event at the observed block production rate.
    """

    name: str
    height: int
    years: float
    per_block_log10_p: float
    chain_log10_p: float
    expected_years_log10: float


# (name, block height, years of operation) of well-known public chains,
# alongside the published logs they are checked against: an upper bound on
# chain_log10_p and a lower bound on expected_years_log10.
REFERENCE_CHAINS: tuple[tuple[str, int, float], ...] = (
    ("bitcoin", 751_789, 14.0),
    ("ethereum", 15_437_870, 7.0),
    ("solana", 148_287_091, 4.0),
)

REFERENCE_BOUNDS: dict[str, tuple[float, float]] = {
    "bitcoin": (-47.0, 47.0),
    "ethereum": (-45.0, 37.0),
    "solana": (-44.0, 35.0),
}

HEADLINE_PARAMS = SafetyParams(m=2, n_c=2, l=0, r=0.9)


def chain_scale_rows(
    per_block: SafetyParams = HEADLINE_PARAMS,
    chains: "tuple[tuple[str, int, float], ...]" = REFERENCE_CHAINS,
) -> list[ChainScaleRow]:
    per_block_log10 = log10_pr_misled(per_block)
    rows = []
    for name, height, years in chains:
        chain_log10 = per_block_log10 + math.log10(height)
        rows.append(
            ChainScaleRow(
                name=name,
                height=height,
                years=years,
                per_block_log10_p=per_block_log10,
                chain_log10_p=chain_log10,
                expected_years_log10=math.log10(years) - chain_log10,
            )
        )
    return rows


def chain_scale_bounds_ok(rows: "list[ChainScaleRow] | None" = None) -> dict[str, bool]:
    """Check each row against its published bound pair."""
    if rows is None:
        rows = chain_scale_rows()
    verdicts = {}
    for row in rows:
        bound = REFERENCE_BOUNDS.get(row.name)
        if bound is None:
            continue
        p_bound, years_bound = bound
        verdicts[row.name] = (
            row.chain_log10_p < p_bound and row.expected_years_log10 > years_bound
        )
    return verdicts


# ---------------------------------------------------------------------------
# misled-probability sweep (m x r grid at fixed n_c)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GridRow:
    r: float
    m: int
    log10_pr: float


DEFAULT_R_VALUES = (0.6, 0.7, 0.8, 0.9)
DEFAULT_M_VALUES = (1, 2, 3, 4, 5, 6)


def misled_grid(
    n_c: int = 3,
    m_values: "tuple[int, ...]" = DEFAULT_M_VALUES,
    r_values: "tuple[float, ...]" = DEFAULT_R_VALUES,
    l: int = 0,
) -> list[GridRow]:
    """log10 misled probability over an (r, m) grid, row-major in r."""
    if not m_values:
        raise ValueError("m_values must be non-empty")
    rows = []
    for r in r_values:
        for m in m_values:
            p = SafetyParams(m=m, n_c=n_c, l=l, r=r)
            rows.append(GridRow(r=r, m=m, log10_pr=log10_pr_misled(p)))
    return rows


def write_csv(rows: "Sequence[object]", path: str) -> None:
    """Write a table of records as CSV, one line per row.

    The columns are a dataclass row's fields in declaration order, or a
    mapping row's keys, and each value is written the way Python prints it.
    An empty table has no columns to name, so it raises ValueError and
    writes no file.
    """
    if not rows:
        raise ValueError("no rows to write")
    records = [row if isinstance(row, Mapping) else asdict(row) for row in rows]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = p_hat + z2 / (2.0 * trials)
    spread = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
    return (max(0.0, (center - spread) / denom), min(1.0, (center + spread) / denom))
