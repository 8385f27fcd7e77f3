"""Command-line front end.

Subcommands wrap the library one-to-one (``outliers``, ``link``, ``utility``,
``synthesize``, ``audit``, ``sweep``): each parses the config, calls the
library and writes what it returns; ``audit`` and ``sweep`` pass the plan
file's directory, from which the audit layer reads the original. Logs go to
stderr and results to files or stdout, so the tool composes in pipelines.

Each command imports the layers it runs, so ``link`` and ``outliers`` do not
load the synthesis, audit, utility and report modules, ``json`` or
``hashlib``; no module loads ``dataclasses``.

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

import numpy as np

from .config import load_config, variant_settings
from .dataset import load_dataset, save_dataset, write_table
from .errors import ConfigError, DataError
from .linkage import attack, save_matches
from .outliers import detect_outliers, save_outlier_set

logger = logging.getLogger("synthaudit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _out_dir(flag_value: str | None, configured: str | None) -> Path:
    return Path(flag_value or os.environ.get("SYNTHAUDIT_OUT") or configured or ".")


def cmd_outliers(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    cfg.require("outliers", "outliers")
    ds = load_dataset(args.data, cfg.schema)
    found = detect_outliers(ds, cfg.outliers)
    out = _out_dir(args.out, cfg.output_dir) / "outliers.csv"
    save_outlier_set(found, cfg.outliers, out)
    logger.info("outlier listing written to %s", out)
    print(f"{len(found)} outliers")
    return EXIT_OK


def cmd_link(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    cfg.require("link", "outliers", "qi")
    qi = cfg.qi.subset(args.qis.split(",")) if args.qis else cfg.qi  # before any data is read
    original = load_dataset(args.original, cfg.schema)
    variant = load_dataset(args.variant, cfg.schema)
    result = attack(original, variant, cfg.outliers, qi, restrict_variant_outliers=cfg.restrict_variant_outliers)
    out = _out_dir(args.out, cfg.output_dir) / "pairs.csv"
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
    original = load_dataset(args.original, cfg.schema)
    variant = load_dataset(args.variant, cfg.schema)
    report = compute_utility(original, variant).to_dict()
    out = _out_dir(args.out, cfg.output_dir) / "utility.json"
    write_report(report, out)
    logger.info("utility report written to %s", out)
    sys.stdout.write(dumps_report(report))
    return EXIT_OK


def cmd_synthesize(args: argparse.Namespace) -> int:
    from .dp_synth import check_settings, synthesize

    cfg = load_config(args.config)
    settings = variant_settings(cfg.synth, args.epsilon, args.n, args.num_bins, args.seed)
    for key in ("epsilon", "n"):  # no default: None when neither the flag nor [synth] gives one
        if getattr(settings, key) is None:
            raise ConfigError(f"'synthesize' requires --{key} or [synth] {key}")
    epsilon, n, num_bins, seed = settings.epsilon, settings.n, settings.num_bins, settings.seed
    check_settings(epsilon, n, num_bins, seed)  # before the original is read
    original = load_dataset(args.original, cfg.schema)
    synth = synthesize(original, epsilon, n, num_bins, seed)
    save_dataset(synth, args.out)
    print(f"wrote {synth.row_count} rows to {args.out} (epsilon={epsilon}, seed={seed})")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    from .audit import run_audit
    from .report import write_report

    plan_path = Path(args.plan)
    cfg = load_config(plan_path)
    out_dir = _out_dir(args.out, cfg.output_dir)
    report = run_audit(cfg, out_dir, plan_path.parent)
    path = write_report(report, out_dir / "report.json")
    failed = 0
    for entry in report["variants"]:
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
        logger.error("data error: %d of %d variants failed", failed, len(report["variants"]))
        return EXIT_DATA
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from .audit import sweep_epsilon
    from .report import write_report

    plan_path = Path(args.plan)
    cfg = load_config(plan_path)
    report = sweep_epsilon(cfg, plan_path.parent)
    out_dir = _out_dir(args.out, cfg.output_dir)
    path = write_report(report, out_dir / "sweep_report.json")
    curve_path = out_dir / "sweep_curve.csv"
    _write_curve_csv(report["sweep_curve"], curve_path)
    for row in report["sweep_curve"]:
        print(
            f"epsilon={row['epsilon']}: unique_matches mean={row['unique_matches']['mean']:.2f} "
            f"min={row['unique_matches']['min']} max={row['unique_matches']['max']}"
        )
    print(f"report: {path}")
    logger.info("curve rows written to %s", curve_path)
    return EXIT_OK


def _write_curve_csv(curve: list[dict], path: Path) -> None:
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
    p.add_argument("--workers", type=int, default=1, help="accepted and ignored; attacks run serially")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep", help="epsilon sweep with generated variants")
    p.add_argument("--plan", required=True, help="plan config file")
    p.add_argument("--out", help="output directory override")
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
