"""Command-line front end.

Subcommands wrap the library one-to-one: ``outliers``, ``link``,
``utility``, ``synthesize``, ``audit``, ``sweep``. Logs go to stderr and
results to files or stdout, so the tool composes in pipelines.

Each command imports the layers it runs, so ``link`` and ``outliers`` do not
load the audit, utility and report modules, ``json`` or ``hashlib``.

Exit codes: 0 success, 2 configuration or usage error, 3 data error
(including an ``audit`` variant that failed and an output path that cannot
be written), 4 internal error.

The only environment variable honored is SYNTHAUDIT_OUT, which overrides
the output directory (command-line --out still wins).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import RunConfig, SynthSettings, config_hash, load_config, render_config
from .dataset import load_dataset, save_dataset, write_table
from .dp_synth import DEFAULT_NUM_BINS, check_settings, synthesize
from .errors import ConfigError, DataError
from .linkage import attack, save_matches
from .outliers import detect_outliers, save_outlier_set

if TYPE_CHECKING:
    from .audit import AuditPlan, AuditReport

logger = logging.getLogger("synthaudit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

WORKERS_HELP = "accepted for compatibility and ignored; attacks run serially"


def _require(cfg: RunConfig, command: str, **parts) -> None:
    for label, value in parts.items():
        if value is None:
            raise ConfigError(f"'{command}' requires a [{label}] section in the config")


def _out_dir(flag_value: str | None, cfg: RunConfig) -> Path:
    env = os.environ.get("SYNTHAUDIT_OUT")
    return Path(flag_value or env or cfg.output_dir or ".")


def cmd_outliers(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _require(cfg, "outliers", schema=cfg.schema, outliers=cfg.outliers)
    ds = load_dataset(args.data, cfg.schema)
    found = detect_outliers(ds, cfg.outliers)
    out = _out_dir(args.out, cfg) / "outliers.csv"
    save_outlier_set(found, cfg.outliers, out)
    logger.info("outlier listing written to %s", out)
    print(f"{len(found)} outliers")
    return EXIT_OK


def cmd_link(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _require(cfg, "link", schema=cfg.schema, outliers=cfg.outliers, qi=cfg.qi)
    original = load_dataset(args.original, cfg.schema)
    variant = load_dataset(args.variant, cfg.schema)
    subset = tuple(args.qis.split(",")) if args.qis else None
    result = attack(
        original,
        variant,
        cfg.outliers,
        cfg.qi,
        qi_subset=subset,
        restrict_variant_outliers=cfg.restrict_variant_outliers,
    )
    out = _out_dir(args.out, cfg) / "pairs.csv"
    save_matches(result, out)
    logger.info("match pairs written to %s", out)
    print(
        f"{len(result.original)} possible matches, "
        f"{result.distinct_original_count} distinct originals, "
        f"{result.unique_match_count} unique matches"
    )
    return EXIT_OK


def cmd_utility(args: argparse.Namespace) -> int:
    from .report import dumps_report, write_report
    from .utility import compute_utility

    cfg = load_config(args.config)
    _require(cfg, "utility", schema=cfg.schema)
    original = load_dataset(args.original, cfg.schema)
    variant = load_dataset(args.variant, cfg.schema)
    report = compute_utility(original, variant).to_dict()
    out = _out_dir(args.out, cfg) / "utility.json"
    write_report(report, out)
    logger.info("utility report written to %s", out)
    sys.stdout.write(dumps_report(report))
    return EXIT_OK


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _require(cfg, "synthesize", schema=cfg.schema)
    base = cfg.synth or SynthSettings(epsilon=0.0, n=0)
    epsilon = args.epsilon if args.epsilon is not None else base.epsilon
    n = args.n if args.n is not None else base.n
    num_bins = args.num_bins if args.num_bins is not None else base.num_bins
    seed = args.seed if args.seed is not None else base.seed
    check_settings(epsilon, n, num_bins, seed)  # before the original is read
    original = load_dataset(args.original, cfg.schema)
    synth = synthesize(original, epsilon, n, num_bins, seed)
    save_dataset(synth, args.out)
    print(f"wrote {synth.row_count} rows to {args.out} (epsilon={epsilon}, seed={seed})")
    return EXIT_OK


def _original_path(cfg: RunConfig, plan_path: Path, what: str) -> Path:
    """``[paths] original``, relative to the plan file unless absolute."""
    if cfg.original is None:
        raise ConfigError(f"{what} requires [paths] original")
    return plan_path.parent / cfg.original


def _echo_config(report: AuditReport, cfg: RunConfig) -> None:
    report.run_meta["config_hash"] = config_hash(cfg)
    report.run_meta["effective_config"] = render_config(cfg)


def _build_plan(cfg: RunConfig, plan_path: Path, out_flag: str | None) -> AuditPlan:
    from .audit import AuditPlan

    _require(cfg, "audit", schema=cfg.schema, outliers=cfg.outliers, qi=cfg.qi)
    return AuditPlan(
        original_path=_original_path(cfg, plan_path, "audit plan"),
        schema=cfg.schema,
        outlier_cfg=cfg.outliers,
        qi_cfg=cfg.qi,
        variants=cfg.variants,
        ladder=cfg.ladder,
        output_dir=_out_dir(out_flag, cfg),
        synth_defaults=cfg.synth,
        restrict_variant_outliers=cfg.restrict_variant_outliers,
        base_dir=plan_path.parent,
    )


def cmd_audit(args: argparse.Namespace) -> int:
    from .audit import run_audit
    from .report import write_report

    plan_path = Path(args.plan)
    cfg = load_config(plan_path)
    plan = _build_plan(cfg, plan_path, args.out)
    report = run_audit(plan)
    _echo_config(report, cfg)
    path = write_report(report.to_dict(), plan.output_dir / "report.json")
    failed = 0
    for entry in report.variants:
        if entry["status"] != "ok":
            failed += 1
            print(f"{entry['name']}: FAILED ({entry['error']})")
            continue
        for subset, summary in entry["linkage"].items():
            print(
                f"{entry['name']} [{subset}]: {summary['possible_matches']} matches, "
                f"{summary['unique_matches']} unique"
            )
    print(f"report: {path}")
    if failed:
        logger.error("data error: %d of %d variants failed", failed, len(report.variants))
        return EXIT_DATA
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from .audit import sweep_epsilon
    from .report import write_report

    plan_path = Path(args.plan)
    cfg = load_config(plan_path)
    _require(cfg, "sweep", schema=cfg.schema, outliers=cfg.outliers, qi=cfg.qi, sweep=cfg.sweep)
    original = load_dataset(_original_path(cfg, plan_path, "sweep"), cfg.schema)
    report = sweep_epsilon(
        original,
        cfg.sweep.grid,
        cfg.sweep.repeats,
        cfg.sweep.base_seed,
        cfg.outliers,
        cfg.qi,
        n=cfg.synth.n if cfg.synth else None,
        num_bins=cfg.synth.num_bins if cfg.synth else DEFAULT_NUM_BINS,
    )
    _echo_config(report, cfg)
    out_dir = _out_dir(args.out, cfg)
    path = write_report(report.to_dict(), out_dir / "sweep_report.json")
    curve_path = out_dir / "sweep_curve.csv"
    _write_curve_csv(report.sweep_curve, curve_path)
    for row in report.sweep_curve:
        print(
            f"epsilon={row['epsilon']}: unique_matches mean={row['unique_matches']['mean']:.2f} "
            f"min={row['unique_matches']['min']} max={row['unique_matches']['max']}"
        )
    print(f"report: {path}")
    logger.info("curve rows written to %s", curve_path)
    return EXIT_OK


def _write_curve_csv(curve: list[dict], path: Path) -> None:
    if not curve:
        return
    columns = [("epsilon", repr, [r["epsilon"] for r in curve])]
    columns.append(("repeats", str, [r["repeats"] for r in curve]))
    for stat, fmt in (("mean", "{:.6f}".format), ("min", str), ("max", str)):
        columns.append((f"unique_matches_{stat}", fmt, [r["unique_matches"][stat] for r in curve]))
    for m in sorted(curve[0]["utility"]):
        columns.append((f"{m}_mean", "{:.6f}".format, [r["utility"][m]["mean"] for r in curve]))
    write_table(path, [(name, fmt, np.array(col, dtype=object)) for name, fmt, col in columns])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthaudit",
        description="Audit synthetic tabular data for outlier re-identification risk.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("outliers", help="flag outlier records in a dataset")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("data", help="dataset file")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_outliers)

    p = sub.add_parser("link", help="linkage attack: original outliers vs a variant")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("original")
    p.add_argument("variant")
    p.add_argument("--qis", help="comma-separated QI subset (default: all configured)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("utility", help="utility metrics of a variant vs the original")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("original")
    p.add_argument("variant")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_utility)

    p = sub.add_parser("synthesize", help="generate a DP independent-marginal variant")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("original")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--num-bins", type=int, dest="num_bins")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("audit", help="run a full multi-variant audit plan")
    p.add_argument("--plan", required=True, help="plan config file")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep", help="epsilon sweep with generated variants")
    p.add_argument("--plan", required=True, help="plan config file")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except DataError as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA
    except OSError as exc:  # reads raise DataError, so this came from a writer
        logger.error("data error: cannot write %s: %s", exc.filename, exc.strerror or exc)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logger.exception("internal error: %s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
