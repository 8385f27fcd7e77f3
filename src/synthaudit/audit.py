"""Multi-variant audit orchestration.

The plan is the parsed config, a :class:`~synthaudit.config.RunConfig`: one
original dataset and any number of synthetic variants (external files or
parameters for the built-in generator). ``run_audit`` and ``sweep_epsilon``
check the plan (``RunConfig.check``) before they read the original it names,
from the plan file's directory. For every variant, ``run_audit`` computes utility
metrics once and runs the linkage attack once per QI subset in the ladder.
Each layer computes its share of the original (outlier targets, histogram
counts per ``num_bins``, utility reference) once per dataset object, so
every variant reuses it. Every audit leaves its trail under its output
directory: the original's outlier listing, each generated variant and one
pair file per variant and subset. ``run_audit`` and ``sweep_epsilon`` build a
generated variant, a report entry and the run_meta stamp through the same
helpers. A data or configuration error on one variant is recorded in its
report entry and does not abort the others; any other exception is a bug and
ends the run. A report's ``run_meta`` names the config it ran
(``config_hash``, ``effective_config``). Variants run one after another in
plan order, so reports are reproducible byte for byte (only the run_meta keys
in ``report.VOLATILE_RUN_META_KEYS`` vary).
"""

from __future__ import annotations

import logging
import os
import time
from pathlib import Path

from .config import RunConfig, SynthSettings, VariantSpec, config_hash, pair_file, render_config, variant_settings
from .dataset import Dataset, load_dataset, save_dataset
from .dp_synth import generator_metadata, synthesize
from .errors import DataError, SynthAuditError
from .linkage import LinkageResult, attack, save_matches
from .outliers import detect_outliers, save_outlier_set
from .utility import compute_utility

logger = logging.getLogger(__name__)


def _regular_file(path: Path) -> Path:
    """``path``, unless it exists and is not a regular file (a FIFO, say):
    an audit reads each input twice, to load it and to hash it."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise DataError(f"{path} is not a regular file: an audit reads it twice, to load it and to hash it")
    return path


def _sha256_file(path: Path) -> str:
    import hashlib  # loads OpenSSL, which only hashing commands need

    digest = hashlib.sha256()
    try:
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def _linkage_summary(result: LinkageResult) -> dict:
    return {
        "possible_matches": len(result.original),
        "distinct_originals": result.distinct_original_count,
        "unique_matches": result.unique_match_count,
        "targets": result.attack_surface[0],
        "variant_rows": result.attack_surface[1],
        "per_original": {str(k): v for k, v in result.per_original_match_count.items()},
    }


def _generate(original: Dataset, settings: SynthSettings) -> tuple[Dataset, dict]:
    """A generated variant and its provenance block; an n of None is the original's row count."""
    n = original.row_count if settings.n is None else settings.n
    values = (settings.epsilon, n, settings.num_bins, settings.seed)
    return synthesize(original, *values), generator_metadata(original.schema, *values)


def _ok_entry(name: str, generator: dict, original: Dataset, variant: Dataset) -> dict:
    """A variant's report entry, its utility computed; the caller adds each subset's linkage."""
    utility = compute_utility(original, variant).to_dict()
    return {"name": name, "status": "ok", "generator": generator, "utility": utility, "linkage": {}}


def _run_meta(started: float, cfg: RunConfig, **meta) -> dict:
    """``meta`` stamped with the run's start time, its wall time so far and the config it ran."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started))
    meta = {"config_hash": config_hash(cfg), "effective_config": render_config(cfg), **meta}
    return {"timestamp": stamp, "wall_time_s": time.time() - started, **meta}


def _audit_one_variant(cfg: RunConfig, spec: VariantSpec, original: Dataset, output_dir: Path, base_dir: Path) -> dict:
    """Load or generate (and save) one variant, then audit it against each ladder
    subset; a data or configuration error gives a ``failed`` entry."""
    try:
        if spec.file is not None:
            path = base_dir / spec.file  # an absolute file stays as it is
            variant = load_dataset(_regular_file(path), cfg.schema)
            generator = {"type": "file", "path": str(path), "sha256": _sha256_file(path)}
        else:
            settings = variant_settings(cfg.synth, spec.epsilon, spec.n, spec.num_bins, spec.seed)
            variant, generator = _generate(original, settings)
            # outputs are recorded relative to output_dir so reports stay
            # portable and identical runs produce identical bytes
            generator["path"] = str(Path("variants", f"{spec.name}.csv"))
            save_dataset(variant, output_dir / generator["path"])
        if spec.tags:
            generator["tags"] = dict(spec.tags)
        entry = _ok_entry(spec.name, generator, original, variant)
        for subset, qi_cfg in zip(cfg.ladder, cfg.subsets):
            result = attack(
                original,
                variant,
                cfg.outliers,
                qi_cfg,
                restrict_variant_outliers=cfg.restrict_variant_outliers,
            )
            pair_path = pair_file(spec.name, subset)
            save_matches(result, output_dir / pair_path)
            entry["linkage"][",".join(subset)] = {**_linkage_summary(result), "pairs_file": str(pair_path)}
        return entry
    except SynthAuditError as exc:  # isolate bad variant inputs; a bug propagates
        logger.warning("variant %s failed: %s", spec.name, exc)
        return {"name": spec.name, "status": "failed", "error": str(exc)}


def run_audit(cfg: RunConfig, output_dir: Path, base_dir: Path = Path(".")) -> dict:
    """Audit every variant of the plan ``cfg`` against its original; return the report.

    ``[paths] original`` and relative variant files are read relative to
    ``base_dir``, the plan file's directory. The report holds ``run_meta``
    and, under ``variants``, one entry per variant in plan order. Writes the
    audit trail under ``output_dir``: ``outliers.csv`` (the original's outlier
    listing), ``variants/<name>.csv`` for each generated variant and
    ``pairs/<name>__<subset>.csv`` for each variant and ladder subset. A plan
    that cannot run raises ``ConfigError`` before any data is read. A variant
    that fails with a data or configuration error gets a ``failed`` entry; an
    unreadable original, or one that is not a regular file (it is read twice,
    to load and to hash it), raises ``DataError``.
    """
    started = time.time()
    cfg.check("audit")
    path, outlier_cfg = _regular_file(base_dir / cfg.original), cfg.outliers
    original = load_dataset(path, cfg.schema)
    targets = detect_outliers(original, outlier_cfg)
    save_outlier_set(targets, outlier_cfg, output_dir / "outliers.csv")
    entries = [_audit_one_variant(cfg, spec, original, output_dir, base_dir) for spec in cfg.variants]
    run_meta = _run_meta(
        started,
        cfg,
        original={"path": str(path), "sha256": _sha256_file(path), "row_count": original.row_count},
        outliers={
            "count": len(targets),
            "k": outlier_cfg.k,
            "combine": outlier_cfg.combine.value,
            "attributes": list(outlier_cfg.attributes),
        },
        ladder=[",".join(subset) for subset in cfg.ladder],
    )
    return {"run_meta": run_meta, "variants": entries}


def _spread(values: list) -> dict:
    return {"mean": sum(values) / len(values), "min": min(values), "max": max(values)}


def sweep_epsilon(cfg: RunConfig, base_dir: Path = Path(".")) -> dict:
    """Generate and audit repeats x |grid| variants of ``cfg.sweep``; return the report with its curve.

    A plan that cannot run raises ``ConfigError`` before ``[paths] original``
    is read, once and unhashed, from ``base_dir`` (the plan file's directory).
    Variant index i (epsilon-major over the ascending grid) gets the seed
    base_seed + i; n and num_bins come from ``[synth]``, and an n of None
    generates as many rows as the original. Each epsilon's ``sweep_curve`` row,
    built right after its repeats, gives the mean, min and max of their
    unique-match counts and of each utility metric's mean; rows are sorted by
    epsilon ascending. Each layer prepares the original once, for every variant.
    """
    started = time.time()
    cfg.check("sweep")
    grid, repeats, base_seed = cfg.sweep.grid, cfg.sweep.repeats, cfg.sweep.base_seed
    original = load_dataset(base_dir / cfg.original, cfg.schema)
    subset = ",".join(cfg.qi.names())
    entries = []
    curve = []
    for epsilon in sorted(grid):
        for _ in range(repeats):
            seed = base_seed + len(entries)
            variant, generator = _generate(original, variant_settings(cfg.synth, epsilon, seed=seed))
            entries.append(_ok_entry(f"eps{epsilon!r}_seed{seed}", generator, original, variant))
            entries[-1]["linkage"][subset] = _linkage_summary(attack(original, variant, cfg.outliers, cfg.qi))
        group = entries[-repeats:]
        metrics = [e["utility"]["aggregate"] for e in group]
        curve.append(
            {
                "epsilon": epsilon,
                "repeats": len(group),
                "unique_matches": _spread([e["linkage"][subset]["unique_matches"] for e in group]),
                "utility": {m: _spread([agg[m]["mean"] for agg in metrics]) for m in metrics[0]},
            }
        )

    run_meta = _run_meta(started, cfg, grid=sorted(grid), repeats=repeats, base_seed=base_seed)
    return {"run_meta": run_meta, "variants": entries, "sweep_curve": curve}
