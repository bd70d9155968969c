"""Command-line front end.

Subcommands cover single runs, trial batches, the two Monte Carlo oracles,
the analysis CSVs, and `reproduce`, which regenerates every analysis output
and checks it against the closed-form values. Exit codes: 0 on success, 2 on
a configuration problem (the message names the offending key), 3 when a
`reproduce` check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

from .analysis import (
    HEADLINE_PARAMS,
    SafetyParams,
    chain_scale_bounds_ok,
    chain_scale_rows,
    log10_pr_misled,
    misled_grid,
    pr_misled,
    write_csv,
)
from .simnet import (
    SimConfig,
    SimConfigError,
    run_miss_model,
    run_simulation,
    run_trials,
    witness_corruption_trials,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3


def _load_config(path: "str | None", seed: "int | None") -> SimConfig:
    if path is None:
        cfg = SimConfig()
    else:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise SimConfigError("config", f"cannot read {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise SimConfigError("config", f"invalid JSON in {path}: {exc}") from None
        cfg = SimConfig.from_dict(data)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _ensure_out(path: "str | None") -> "str | None":
    if path is not None:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise SimConfigError("out", f"cannot create directory {path}: {exc.strerror}") from None
    return path


def _write(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    return path


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.seed)
    out_dir = _ensure_out(args.out)
    report = run_simulation(cfg)
    if out_dir:
        _write(out_dir, "config.json", json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        _write(out_dir, "report.json", report.to_json())
        print(f"wrote {out_dir}/report.json")
    print(
        f"seed={report.seed} blocks_minted={report.blocks_minted} "
        f"txs_confirmed={report.txs_confirmed} hard_forks={report.hard_forks} "
        f"misled_events={report.misled_events}"
    )
    return EXIT_OK


def cmd_trials(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.seed)
    out_dir = _ensure_out(args.out)
    result = run_trials(cfg, args.trials, jobs=args.jobs)
    if out_dir:
        _write(out_dir, "config.json", json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        _write(out_dir, "trials.json", result.to_json())
        write_csv(result.rows, os.path.join(out_dir, "trials.csv"))
        print(f"wrote {out_dir}/trials.json and trials.csv")
    print(result.summary_line())
    lo, hi = result.hard_fork_ci
    print(f"hard-fork rate CI95 [{lo:.6f}, {hi:.6f}]")
    return EXIT_OK


def cmd_miss_model(args: argparse.Namespace) -> int:
    params = SafetyParams(m=args.m, n_c=args.nc, l=args.l, r=args.r)
    out_dir = _ensure_out(args.out)
    result = run_miss_model(params, args.trials, seed=args.seed)
    analytic = pr_misled(params)
    print(
        f"K={result.exponent} analytic={analytic:.9g} "
        f"empirical={result.frequency:.9g} ({result.misled}/{result.trials})"
    )
    if out_dir:
        payload = {**asdict(params), **asdict(result), "analytic": analytic}
        _write(out_dir, "miss_model.json", json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_corruption(args: argparse.Namespace) -> int:
    out_dir = _ensure_out(args.out)
    result = witness_corruption_trials(
        args.attempts, args.q, args.m, n_keys=args.keys, seed=args.seed
    )
    print(
        f"q={result.q} m={result.m} analytic={result.analytic:.6g} "
        f"witnessed={result.witnessed_rate:.6g} ({result.witnessed}/{result.attempts}) "
        f"adversarial-slot rate={result.adversarial_slot_rate:.4f}"
    )
    if out_dir:
        _write(out_dir, "corruption.json", json.dumps(asdict(result), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_misled_sweep(args: argparse.Namespace) -> int:
    rows = misled_grid(n_c=args.nc)
    out_dir = _ensure_out(args.out) or "."
    path = os.path.join(out_dir, "misled_sweep.csv")
    write_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_chain_scale(args: argparse.Namespace) -> int:
    rows = chain_scale_rows()
    out_dir = _ensure_out(args.out) or "."
    path = os.path.join(out_dir, "chain_scale.csv")
    write_csv(rows, path)
    verdicts = chain_scale_bounds_ok(rows)
    for row in rows:
        print(
            f"{row.name}: chain log10 p = {row.chain_log10_p:.2f}, "
            f"expected-years log10 = {row.expected_years_log10:.2f}, "
            f"within bound = {verdicts.get(row.name)}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _three_sigma_ok(analytic: float, hits: int, trials: int) -> tuple[bool, float]:
    """Whether hits/trials lies within 3 sigma of analytic, and its z-score.

    At an analytic 0 or 1 sigma is 0 and every draw is certain, so only
    exact agreement passes; any other count reads z = +-inf.
    """
    sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
    gap = hits / trials - analytic
    if sigma > 0:
        z = gap / sigma
    else:
        z = 0.0 if gap == 0 else math.copysign(math.inf, gap)
    return abs(z) <= 3.0, z


@dataclass(frozen=True, slots=True)
class Check:
    """One `reproduce` check as written to checklist.json.

    value is what the check measured and expected what it was held to, when
    there is one; z is the Monte Carlo checks' z-score against the closed form.
    """

    name: str
    ok: bool
    value: object = None
    expected: object = None
    z: "float | None" = None


def cmd_reproduce(args: argparse.Namespace) -> int:
    out_dir = _ensure_out(args.out) or "."
    headline = log10_pr_misled(HEADLINE_PARAMS)
    rows = chain_scale_rows()
    write_csv(rows, os.path.join(out_dir, "chain_scale.csv"))
    verdicts = chain_scale_bounds_ok(rows)
    grid = misled_grid(n_c=3)
    write_csv(grid, os.path.join(out_dir, "misled_sweep.csv"))
    by_r: dict[float, list[float]] = {}
    for row in grid:
        by_r.setdefault(row.r, []).append(row.log10_pr)
    mono_m = all(
        later < earlier
        for series in by_r.values()
        for earlier, later in zip(series, series[1:])
    )
    r_sorted = sorted(by_r)
    mono_r = all(
        all(b < a for a, b in zip(by_r[r1], by_r[r2]))
        for r1, r2 in zip(r_sorted, r_sorted[1:])
    )
    corr = witness_corruption_trials(args.corruption_attempts, 0.5, 3, seed=args.seed)
    corr_ok, corr_z = _three_sigma_ok(corr.analytic, corr.witnessed, corr.attempts)
    params = SafetyParams(m=1, n_c=1, l=0, r=0.2)
    miss = run_miss_model(params, args.miss_trials, seed=args.seed)
    miss_ok, miss_z = _three_sigma_ok(pr_misled(params), miss.misled, miss.trials)
    checks = [
        Check("headline_log10", abs(headline - (-54.0)) < 1e-9, headline, -54.0),
        Check("chain_scale_bounds", bool(verdicts) and all(verdicts.values()), verdicts),
        Check("sweep_monotone", mono_m and mono_r),
        Check("corruption_mc", corr_ok, corr.witnessed_rate, corr.analytic, corr_z),
        Check("miss_model_mc", miss_ok, miss.frequency, pr_misled(params), miss_z),
    ]
    payload = [asdict(check) for check in checks]
    _write(out_dir, "checklist.json", json.dumps(payload, indent=2, sort_keys=True))
    for check in checks:
        print(f"[{'PASS' if check.ok else 'FAIL'}] {check.name}")
    failed = [check.name for check in checks if not check.ok]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"all checks passed; outputs in {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorechain", description="score-ordered chain simulator and analysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one seeded simulation")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--out", help="directory for report.json")
    sim.set_defaults(func=cmd_simulate)

    tri = sub.add_parser("trials", help="run a batch of independent trials")
    tri.add_argument("--config", help="JSON config file")
    tri.add_argument("--seed", type=int, help="override the base seed")
    tri.add_argument("--trials", type=int, default=100)
    tri.add_argument("--jobs", type=int, default=1)
    tri.add_argument("--out", help="directory for trials.json/csv")
    tri.set_defaults(func=cmd_trials)

    miss = sub.add_parser("miss-model", help="Monte Carlo the misled probability")
    miss.add_argument("--m", type=int, default=1)
    miss.add_argument("--nc", type=int, default=1)
    miss.add_argument("--l", type=int, default=0)
    miss.add_argument("--r", type=float, default=0.2)
    miss.add_argument("--trials", type=int, default=1_000_000)
    miss.add_argument("--seed", type=int, default=0)
    miss.add_argument("--out", help="directory for miss_model.json")
    miss.set_defaults(func=cmd_miss_model)

    cor = sub.add_parser("corruption", help="Monte Carlo the witness-corruption rate")
    cor.add_argument("--q", type=float, default=0.5)
    cor.add_argument("--m", type=int, default=3)
    cor.add_argument("--attempts", type=int, default=100_000)
    cor.add_argument("--keys", type=int, default=200)
    cor.add_argument("--seed", type=int, default=0)
    cor.add_argument("--out", help="directory for corruption.json")
    cor.set_defaults(func=cmd_corruption)

    sweep = sub.add_parser("misled-sweep", help="write the misled-probability grid CSV")
    sweep.add_argument("--nc", type=int, default=3)
    sweep.add_argument("--out", help="output directory")
    sweep.set_defaults(func=cmd_misled_sweep)

    scale = sub.add_parser("chain-scale", help="write the chain-scale table CSV")
    scale.add_argument("--out", help="output directory")
    scale.set_defaults(func=cmd_chain_scale)

    rep = sub.add_parser("reproduce", help="regenerate analysis outputs and check them")
    rep.add_argument("--out", help="output directory", default="reproduction")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--corruption-attempts", type=int, default=40_000)
    rep.add_argument("--miss-trials", type=int, default=400_000)
    rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
