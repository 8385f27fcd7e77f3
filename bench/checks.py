"""Output checks: a digest of the match-set outputs, and the brute-force oracle.

The digest covers the files a run writes (outlier listing, pair files,
generated variants, sweep curve) byte for byte, and from the JSON report only
the per-variant status, utility block and today's linkage fields. Keys added
to the report later do not change it; a changed match does.

The oracle check compares a seeded sample of targets with
``tests/linkage_oracle.py``, reading the inputs with its own CSV parser so
that nothing of synthaudit sits between the files and the oracle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from workloads import COLUMNS, LADDER, Inputs, Workload

LINKAGE_FIELDS = ("possible_matches", "distinct_originals", "unique_matches", "per_original")
MISSING = {"", "NA"}
QI_RULES = {
    "person_age": ("gauss", "person_age", 5.0, 5.0, 0.5),
    "person_income": ("gauss", "person_income", 1000.0, 1000.0, 0.5),
    "person_home_ownership": ("lev", "person_home_ownership", 1.0),
    "loan_intent": ("lev", "loan_intent", 1.0),
    "zip": ("lev", "zip", 0.8),
}
NUMERIC = {name for name, spec in COLUMNS if spec.startswith("numerical")}
ORACLE_PAIRS = 1_000_000  # pairs the oracle scores per check, about a second


class CheckError(Exception):
    """An output is missing, malformed or different from what it should be."""


@dataclass(frozen=True)
class Outputs:
    """What one CLI run produced, reduced to what the checks compare."""

    digest: str
    matches: int  # possible-match pairs over every attack in the run
    reported_pairs: int | None  # sum of targets x variant_rows from the report, if it has them
    failed_variants: int


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report_entries(report_path: Path) -> tuple[list[dict], int, int | None, int]:
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        variants = report["variants"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckError(f"unreadable report {report_path.name}: {exc}") from None
    entries, matches, failed = [], 0, 0
    surface: int | None = 0
    for v in variants:
        entry = {"name": v.get("name"), "status": v.get("status")}
        if v.get("status") != "ok":
            failed += 1
            entries.append(entry)
            continue
        entry["utility"] = v.get("utility")
        entry["linkage"] = {}
        for subset, summary in v.get("linkage", {}).items():
            entry["linkage"][subset] = {k: summary.get(k) for k in LINKAGE_FIELDS}
            matches += summary.get("possible_matches") or 0
            if surface is not None and "targets" in summary and "variant_rows" in summary:
                surface += summary["targets"] * summary["variant_rows"]
            else:
                surface = None
        entries.append(entry)
    return entries, matches, surface, failed


def read_outputs(command: str, out_dir: Path) -> Outputs:
    """Digest the outputs of one run of ``command`` written under out_dir."""
    if command == "link":
        files = [out_dir / "pairs.csv"]
        entries, surface, failed = [], None, 0
        try:
            with files[0].open(encoding="utf-8") as fh:
                matches = sum(1 for _ in fh) - 1
        except OSError as exc:
            raise CheckError(f"missing pair file: {exc}") from None
    else:
        report = out_dir / ("report.json" if command == "audit" else "sweep_report.json")
        entries, matches, surface, failed = _report_entries(report)
        if command == "audit":
            files = [out_dir / "outliers.csv"]
            files += sorted((out_dir / "pairs").glob("*.csv")) + sorted((out_dir / "variants").glob("*.csv"))
        else:
            files = [out_dir / "sweep_curve.csv"]
    try:
        hashes = {str(f.relative_to(out_dir)): _sha256(f) for f in files}
    except OSError as exc:
        raise CheckError(f"missing output: {exc}") from None
    blob = json.dumps({"files": hashes, "report": entries}, sort_keys=True).encode()
    return Outputs(hashlib.sha256(blob).hexdigest(), matches, surface, failed)


def read_table(path: Path) -> dict[str, list]:
    """Complete cases of a CSV file as columns; numeric columns as floats."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: dict[str, list] = {name: [] for name in header}
        for row in reader:
            if any(cell in MISSING for cell in row):
                continue
            for name, cell in zip(header, row):
                cols[name].append(float(cell) if name in NUMERIC else cell)
    return cols


def _oracle():
    """tests/linkage_oracle.py of the checkout under test."""
    tests = str(Path(__file__).resolve().parents[1] / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import linkage_oracle

    return linkage_oracle


def targets(workload: Workload, original: dict[str, list]) -> list[int]:
    attrs = ("person_age", "person_income")
    return _oracle().outlier_targets({a: original[a] for a in attrs}, attrs, 3.0, workload.params["combine"])


def expected_pairs(workload: Workload, inputs: Inputs) -> tuple[int, dict]:
    """Candidate pairs (sum of targets x variant rows over every attack), from the inputs alone."""
    original = read_table(inputs.original)
    n_targets = len(targets(workload, original))
    p = workload.params
    if workload.command == "link":
        variant_rows = len(read_table(inputs.variant)["person_age"])
        attacks = [variant_rows]
    elif workload.command == "sweep":
        attacks = [p["synth_n"]] * (len(p["grid"].split()) * p["repeats"])
    else:
        rungs = len(LADDER.split("|"))
        attacks = [p["synth_n"]] * rungs
        if p["external_variant"]:
            external = inputs.config.parent / "external.csv"
            attacks += [len(read_table(external)["person_age"])] * rungs
    shape = {
        "original_rows": len(original["person_age"]),
        "targets": n_targets,
        "attacks": len(attacks),
        "variant_rows": sorted(set(attacks)),
    }
    return n_targets * sum(attacks), shape


def _pair_set(path: Path) -> set[tuple[int, int]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {(int(r[0]), int(r[1])) for r in reader}


def oracle_check(workload: Workload, inputs: Inputs, out_dir: Path, seed: int, python_cmd: list[str], env: dict) -> int:
    """Check a seeded sample of targets against the oracle; returns pairs checked.

    Raises CheckError on the first disagreement, or when the outputs cannot
    be read.
    """
    try:
        return _oracle_check(workload, inputs, out_dir, seed, python_cmd, env)
    except (OSError, ValueError, KeyError, IndexError, TypeError, subprocess.SubprocessError) as exc:
        raise CheckError(f"outputs unreadable for the oracle check: {exc!r}") from None


def _oracle_jobs(workload: Workload, inputs: Inputs, out_dir: Path, python_cmd: list[str], env: dict) -> list[tuple]:
    """(label, variant file, QI names, matches the run reported) for each attack to check.

    The reported matches are a pair set, or per-original counts where the
    run writes no pair file (sweep).
    """
    if workload.command == "link":
        return [("link", inputs.variant, list(QI_RULES), _pair_set(out_dir / "pairs.csv"))]
    if workload.command == "audit":
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        jobs = []
        for v in report["variants"]:
            if v["generator"]["type"] == "file":
                variant_path = inputs.config.parent / "external.csv"
            else:
                variant_path = out_dir / v["generator"]["path"]
            for subset, summary in v["linkage"].items():
                pairs = _pair_set(out_dir / summary["pairs_file"])
                jobs.append((f"{v['name']} [{subset}]", variant_path, subset.split(","), pairs))
        return jobs
    # sweep: regenerate the first and last variant through the CLI
    report = json.loads((out_dir / "sweep_report.json").read_text(encoding="utf-8"))
    jobs = []
    for v in (report["variants"][0], report["variants"][-1]):
        g = v["generator"]
        path = out_dir.parent / f"oracle_{g['seed']}.csv"
        cmd = python_cmd + [
            "synthesize", "-c", str(inputs.config), str(inputs.original), "--out", str(path),
            "--epsilon", repr(g["epsilon"]), "--seed", str(g["seed"]), "--n", str(g["n"]),
            "--num-bins", str(g["num_bins"]),
        ]
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        if done.returncode != 0:
            raise CheckError(f"synthesize for the oracle failed: {done.stderr.decode()[-300:]}")
        (subset, summary), = v["linkage"].items()
        jobs.append((v["name"], path, subset.split(","), summary["per_original"]))
    return jobs


def _oracle_check(workload: Workload, inputs: Inputs, out_dir: Path, seed: int, python_cmd: list[str], env: dict) -> int:
    oracle = _oracle()
    original = read_table(inputs.original)
    all_targets = targets(workload, original)
    if workload.command == "audit":
        listing = (out_dir / "outliers.csv").read_text(encoding="utf-8").splitlines()[1:]
        listed = [int(line.split(",", 1)[0]) for line in listing]
        if listed != all_targets:
            raise CheckError(f"outliers.csv lists {len(listed)} targets, the oracle {len(all_targets)}")

    jobs = _oracle_jobs(workload, inputs, out_dir, python_cmd, env)
    variants = {path: read_table(path) for _, path, _, _ in jobs}
    rows = sum(len(variants[path]["person_age"]) for _, path, _, _ in jobs)
    size = min(len(all_targets), max(1, ORACLE_PAIRS // rows))
    sample = sorted(random.Random(seed).sample(all_targets, size))
    sampled = set(sample)
    for label, path, qis, reported in jobs:
        expected = oracle.oracle_matches(original, variants[path], [QI_RULES[q] for q in qis], sample)
        if isinstance(reported, dict):
            got = {i: reported.get(str(i), 0) for i in sample}
            want = {i: sum(1 for t, _ in expected if t == i) for i in sample}
            if got != want:
                raise CheckError(f"{label}: per-original match counts differ from the oracle")
        else:
            got = {pair for pair in reported if pair[0] in sampled}
            if got != expected:
                raise CheckError(f"{label}: {len(got ^ expected)} pairs differ from the oracle")
    return size * rows

